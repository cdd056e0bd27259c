//! Run sessions: the one loop that drives an engine over a stream.
//!
//! A [`RunSession`] owns everything between event sources and the engine's
//! data plane, so every caller — `Engine::run`, `saql demo` / `replay`,
//! `saql serve` — runs the same loop:
//!
//! * **Sources.** A watermarked K-way merge of pluggable [`EventSource`]s
//!   (streamed store selections, paced replays, JSON-lines pipes,
//!   push-handle channels) that attach and detach mid-stream. The merged
//!   order is a deterministic function of the per-source event sequences,
//!   so engines agree on multi-source runs whatever their worker count.
//! * **Pipelines.** The engine's `|>` edges ([`crate::pipeline`]): each pump
//!   round rebuilds the edge table when the registry's edge set changed,
//!   processes its base events, then hands the alerts they raised to their
//!   stages as derived events, cascading until nothing more is derived —
//!   so no alert is in flight between rounds. With workers, the round
//!   first waits for them ([`Engine::sync`]), so a punctuation never
//!   outruns an alert. A session without edges does no pipeline work.
//! * **Position.** [`offset`](RunSession::offset) counts *base* events —
//!   everything but pipeline-derived `op = alert` events — from the
//!   checkpoint a resumed session started at: it is the store offset of
//!   the next event.
//! * **Checkpoints.** One path, [`checkpoint_now`](RunSession::checkpoint_now):
//!   snapshot at the base offset with the adapter positions stamped in,
//!   write atomically. The cadence
//!   ([`enable_checkpoints`](RunSession::enable_checkpoints)) calls it at a
//!   round boundary every N base events; its first failure stops the
//!   cadence, never the stream.
//! * **Write-ahead.** With a store installed
//!   ([`DurableLog::WriteAhead`](crate::DurableLog::WriteAhead)), every
//!   round appends and syncs the base events whose offset is not yet on
//!   disk *before* the engine consumes them: one append + sync per round,
//!   and a tapped round drains what is ready, up to the budget and the
//!   next cadence checkpoint, so one sync covers a backlog. The
//!   first failure stops appends and vetoes every later checkpoint, so no
//!   checkpoint claims an event the store lacks.
//! * **End of stream.** [`drain`](RunSession::drain) pumps until every
//!   base source ended, then [`finish`](RunSession::finish): stages flush
//!   layer by layer, then [`Engine::finish`]. `Engine::run` is a
//!   one-source [`Lateness::ArrivalOrder`] session drained this way.
//!
//! Commands open their session through a [`crate::Deployment`], which
//! decides resume, the checkpoint cadence and the durable log in one place.

use std::path::PathBuf;

use saql_model::{Event, Operation, Timestamp};
use saql_stream::merge::{
    Lateness, MergeConfig, MergeStatus, SourceId, SourceStats, WatermarkMerge,
};
use saql_stream::source::EventSource;
use saql_stream::{EventBatch, SharedEvent, StoreWriter};

use crate::alert::Alert;
use crate::checkpoint::Checkpoint;
use crate::control::{Control, ControlReply, Scope};
use crate::engine::Engine;
use crate::error::EngineError;
use crate::pipeline::Edges;

/// Cadence and destination for automatic checkpoints
/// ([`RunSession::enable_checkpoints`]).
#[derive(Debug, Clone)]
pub struct CheckpointConfig {
    /// Directory the checkpoint file lives in (created if absent). Each
    /// checkpoint atomically replaces the previous one.
    pub dir: PathBuf,
    /// Take a checkpoint after at least this many base events since the
    /// last one, at the next pump-round boundary. Zero disables the cadence
    /// (only explicit [`RunSession::checkpoint_now`] calls write).
    pub every_events: u64,
}

/// Checkpoint bookkeeping inside a session.
struct CheckpointState {
    config: CheckpointConfig,
    /// Base events fed since the last checkpoint (cadence trigger).
    since_last: u64,
    /// Offset of the last checkpoint written, if any.
    last_offset: Option<u64>,
    /// The first cadence failure; auto-checkpointing stops on it (an
    /// explicit [`RunSession::checkpoint_now`] retries and clears it).
    failure: Option<EngineError>,
}

/// A checkpoint [`RunSession::checkpoint_now`] wrote.
#[derive(Debug)]
pub struct Checkpointed {
    /// The checkpoint file.
    pub path: PathBuf,
    /// The base-stream offset it records.
    pub offset: u64,
}

/// The write-ahead store of a session ([`RunSession::write_ahead`]).
struct WriteAhead {
    store: StoreWriter,
    /// Base offset up to which events are on disk.
    persisted: u64,
    /// The first append or sync failure: appends stop on it.
    failure: Option<String>,
}

/// Progress of a [`RunSession::pump`] round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionStatus {
    /// Events flowed (or are imminently available).
    Active,
    /// No source had anything to deliver; live feeds are waiting on
    /// external producers. Back off briefly before pumping again.
    Idle,
    /// Every attached source reached end-of-stream and drained.
    Done,
}

/// What one pump round produced.
#[derive(Debug)]
pub struct Pump {
    /// Alerts raised by the events processed this round (on a
    /// worker-backed engine alerts surface as the workers deliver them,
    /// idle rounds included — everything is in once [`Engine::finish`]
    /// ran, which [`RunSession::drain`] does).
    pub alerts: Vec<Alert>,
    /// Events fed to the engine by the call, pipeline-derived events
    /// included.
    pub events: u64,
    /// Session progress after the round.
    pub status: SessionStatus,
}

/// A pump-driven engine run over attachable event sources.
///
/// Created by [`Engine::session`]. Attach sources, then either call
/// [`pump`](Self::pump) yourself (interleaving control-plane calls through
/// [`engine`](Self::engine) at exact stream positions) or let
/// [`drain`](Self::drain) run the stream to completion and flush.
///
/// ```
/// use saql_engine::{Engine, EngineConfig};
/// use saql_model::event::EventBuilder;
/// use saql_model::ProcessInfo;
/// use saql_stream::source::{push_source, IterSource};
/// use std::sync::Arc;
///
/// let start = |id: u64, host: &str, ts: u64| {
///     EventBuilder::new(id, host, ts)
///         .subject(ProcessInfo::new(1, "cmd.exe", "u"))
///         .starts_process(ProcessInfo::new(2, "osql.exe", "u"))
///         .build()
/// };
///
/// let mut engine = Engine::new(EngineConfig::default());
/// engine
///     .register("watch", "proc p1[\"%cmd.exe\"] start proc p2 as e\nreturn p1, p2")
///     .unwrap();
///
/// // One stored feed and one live push feed, merged by watermark.
/// let (push, live) = push_source("agent-live", 64);
/// let mut session = engine.session();
/// let stored = session.attach(IterSource::new(
///     "agent-stored",
///     [start(1, "h1", 10), start(2, "h1", 30)].map(Arc::new),
/// ));
/// session.attach(live);
///
/// push.push(start(3, "h2", 20));
/// drop(push); // close the live feed
///
/// let alerts = session.drain();
/// assert_eq!(alerts.len(), 3);
/// // The merge interleaved by event time across sources.
/// assert_eq!(
///     alerts.iter().map(|a| a.ts.as_millis()).collect::<Vec<_>>(),
///     vec![10, 20, 30],
/// );
/// # let _ = stored;
/// ```
pub struct RunSession<'e> {
    engine: &'e mut Engine,
    merge: WatermarkMerge<'e>,
    batch: Vec<SharedEvent>,
    /// Events fed to the engine, pipeline-derived ones included.
    processed: u64,
    /// Base events fed to the engine.
    base: u64,
    /// Stream offset this session started at: `0` for a fresh run, the
    /// checkpoint's offset after [`resume_at`](Self::resume_at), the
    /// store's length after [`write_ahead`](Self::write_ahead) — so
    /// [`offset`](Self::offset) is always a *global* store position.
    base_offset: u64,
    /// Merge frontier carried over from a resumed checkpoint.
    base_frontier: Timestamp,
    checkpoints: Option<CheckpointState>,
    store: Option<WriteAhead>,
    edges: Edges,
    /// Adapter positions from [`resume_at`](Self::resume_at), consumed by
    /// the first wiring.
    adapters: Vec<(String, u64)>,
}

impl Engine {
    /// Open a source-driven run session with default merge settings.
    pub fn session(&mut self) -> RunSession<'_> {
        self.session_with(MergeConfig::default())
    }

    /// Open a source-driven run session with explicit merge settings
    /// (default lateness bound, pull batch size).
    pub fn session_with(&mut self, config: MergeConfig) -> RunSession<'_> {
        RunSession {
            engine: self,
            merge: WatermarkMerge::new(config),
            batch: Vec::new(),
            processed: 0,
            base: 0,
            base_offset: 0,
            base_frontier: Timestamp::ZERO,
            checkpoints: None,
            store: None,
            edges: Edges::default(),
            adapters: Vec::new(),
        }
    }
}

impl<'e> RunSession<'e> {
    /// Attach a source under the session's default lateness bound. Sources
    /// can attach at any time, including after pumping has started.
    pub fn attach<S: EventSource + 'e>(&mut self, source: S) -> SourceId {
        self.merge.attach(Box::new(source))
    }

    /// Attach a source with an explicit ordering contract (see
    /// [`Lateness`]).
    pub fn attach_with<S: EventSource + 'e>(&mut self, source: S, lateness: Lateness) -> SourceId {
        self.merge.attach_with(Box::new(source), lateness)
    }

    /// Detach a source mid-stream: it stops feeding (buffered events are
    /// discarded) and stops gating the merge frontier; its final stats are
    /// returned. The id is retired, never reused.
    pub fn detach(&mut self, id: SourceId) -> Result<SourceStats, EngineError> {
        self.merge.detach(id).ok_or(EngineError::UnknownSource(id))
    }

    /// The engine under the session — the query control plane stays fully
    /// available mid-pump (register/deregister/pause/resume land
    /// at the current stream position; the next round rebuilds the
    /// pipeline edge table).
    /// Serve and the CLI change the query set through
    /// [`control`](Self::control) instead.
    pub fn engine(&mut self) -> &mut Engine {
        self.engine
    }

    /// One pump round with the default per-round event budget.
    pub fn pump(&mut self) -> Pump {
        self.pump_max(usize::MAX)
    }

    /// One pump round: rebuild the pipeline edge table if the registry's
    /// edge set changed, feed at most `max` merged events to the engine,
    /// hand the alerts they raised to their pipeline stages, and take a due
    /// cadence checkpoint. Bounding the budget lets callers interleave
    /// control-plane changes at exact stream positions (see the CLI's
    /// staged lifecycle flags); the derived events a round feeds its stages
    /// are not bounded by it.
    ///
    /// Merged events are fed in [`EventBatch`]es of the engine's execution
    /// batch size ([`Engine::batch_size`]).
    ///
    /// If the engine was explicitly finished mid-session (via
    /// [`engine`](Self::engine) on a worker-backed engine), the round ends
    /// immediately with [`SessionStatus::Done`] — a finished engine can
    /// absorb no more events.
    pub fn pump_max(&mut self, max: usize) -> Pump {
        self.wire();
        let round = self.round(max);
        self.cadence();
        round
    }

    /// One merge poll, appending at most `max` events to the batch.
    fn poll(&mut self, max: usize) -> SessionStatus {
        match self.merge.poll(&mut self.batch, max) {
            MergeStatus::Active => SessionStatus::Active,
            MergeStatus::Idle => SessionStatus::Idle,
            MergeStatus::Done => SessionStatus::Done,
        }
    }

    /// One merge-and-process round, write-ahead tap and pipeline stages
    /// included: no rewiring, no cadence.
    ///
    /// A tapped round drains what is ready: it polls again while the last
    /// poll moved events, up to `max` and the next cadence checkpoint, so
    /// one append + sync covers a backlog. Its status is the last moving
    /// poll's — the trailing empty poll's `Idle` would park a caller that
    /// still has work. Untapped rounds poll once.
    fn round(&mut self, max: usize) -> Pump {
        self.batch.clear();
        let mut status = self.poll(max);
        let room = self.drain_room();
        let (mut moved, mut base) = (self.batch.len(), base_events(&self.batch));
        while moved > 0 && base < room && self.batch.len() < max {
            let from = self.batch.len();
            let polled = self.poll(max - from);
            moved = self.batch.len() - from;
            if moved > 0 {
                (status, base) = (polled, base + base_events(&self.batch[from..]));
            }
        }
        let mut alerts = if self.batch.is_empty() {
            // An idle round still visits the engine, with an empty batch: a
            // worker-backed engine hands over the alerts it has finished
            // since the last round, so a quiet stream's tail is not held
            // back until more traffic arrives.
            let idle = EventBatch::from_events(Vec::new());
            self.engine.process_batch(&idle).unwrap_or_default()
        } else {
            self.append_ahead();
            Vec::new()
        };
        let mut fed = 0;
        for chunk in self.batch.chunks(self.engine.batch_size()) {
            match self
                .engine
                .process_batch(&EventBatch::from_events(chunk.to_vec()))
            {
                Ok(fresh) => {
                    fed += chunk.len();
                    alerts.extend(fresh);
                }
                Err(_) => {
                    status = SessionStatus::Done;
                    break;
                }
            }
        }
        let base = base_events(&self.batch[..fed]);
        self.base += base;
        if let Some(ck) = self.checkpoints.as_mut() {
            ck.since_last += base;
        }
        let events = fed as u64 + self.cascade(&mut alerts);
        self.processed += events;
        Pump {
            alerts,
            events,
            status,
        }
    }

    /// Base events a round may drain past its first poll: up to the next
    /// cadence checkpoint when tapped, none when untapped or replaying what
    /// the store already holds.
    fn drain_room(&self) -> u64 {
        match &self.store {
            Some(ahead) if self.offset() >= ahead.persisted => {
                self.cadence_left().unwrap_or(u64::MAX)
            }
            _ => 0,
        }
    }

    /// The write-ahead tap: append and sync the round's base events whose
    /// offset is not yet on disk, before the engine sees any of them — one
    /// append and one sync, the events passed by reference, not copied.
    /// Derived events never enter the store — a resume re-derives them
    /// from the replayed base stream.
    fn append_ahead(&mut self) {
        let Some(ahead) = self.store.as_mut().filter(|a| a.failure.is_none()) else {
            return;
        };
        let offset = self.base_offset + self.base;
        let on_disk = ahead.persisted.saturating_sub(offset) as usize;
        let base = self.batch.iter().filter(|e| e.op != Operation::Alert);
        let fresh: Vec<&Event> = base.skip(on_disk).map(|e| &**e).collect();
        if fresh.is_empty() {
            return;
        }
        match ahead.store.append(&fresh).and_then(|_| ahead.store.sync()) {
            Ok(()) => ahead.persisted = offset.max(ahead.persisted) + fresh.len() as u64,
            Err(e) => ahead.failure = Some(e.to_string()),
        }
    }

    /// Rebuild the pipeline edge table if the registry's edge set changed.
    /// Surviving upstreams keep their adapter positions; a resumed
    /// session's first table takes them from the checkpoint.
    pub(crate) fn wire(&mut self) {
        if self.edges.stale(self.engine) {
            let mut seqs = self.edges.adapter_seqs();
            seqs.append(&mut self.adapters);
            self.edges = Edges::connect(self.engine, &seqs);
        }
    }

    /// Hand every alert in `alerts` to its query's stages: adapt, feed the
    /// derived events to the engine, and go again on the alerts those
    /// raise until a pass derives nothing. Pass `d` punctuates the edges
    /// of depth `d`, once their upstreams' alerts of the round are in.
    /// Returns the derived events fed.
    ///
    /// With workers, a pass first collects the alerts still on them — the
    /// first pass always, later ones only when a stage feeds a stage — so
    /// every upstream alert is adapted before the punctuation that would
    /// outrun it, and none is left in flight when the round ends.
    fn cascade(&mut self, alerts: &mut Vec<Alert>) -> u64 {
        if self.edges.is_empty() {
            return 0;
        }
        let frontier = self.frontier();
        let collect = self.engine.workers() > 0;
        let (mut from, mut fed) = (0, 0u64);
        for pass in 0.. {
            if collect && (pass == 0 || self.edges.deep()) {
                alerts.extend(self.engine.sync().unwrap_or_default());
            }
            let derived = self.edges.derive(&alerts[from..], pass, frontier);
            if derived.is_empty() {
                break;
            }
            from = alerts.len();
            for chunk in derived.chunks(self.engine.batch_size()) {
                let batch = EventBatch::from_events(chunk.to_vec());
                match self.engine.process_batch(&batch) {
                    Ok(fresh) => alerts.extend(fresh),
                    Err(_) => return fed,
                }
                fed += chunk.len() as u64;
            }
        }
        fed
    }

    /// Flush the stages layer by layer — each upstream's final windows
    /// reach its dependents before those flush in turn, exactly like
    /// hand-chained engines finishing in sequence.
    pub(crate) fn finish_stages(&mut self) -> Vec<Alert> {
        self.wire();
        if self.edges.is_empty() {
            return Vec::new();
        }
        let mut out = self.settle();
        for id in Edges::flush_order(self.engine) {
            // The flushed alerts wait in the engine for the settle.
            if self.engine.flush_query(id).is_ok() {
                out.extend(self.settle());
            }
        }
        out
    }

    /// Collect what the engine holds back — alerts a control-plane call
    /// buffered, or a worker has not handed over yet — and cascade them.
    fn settle(&mut self) -> Vec<Alert> {
        let mut out = self.engine.sync().unwrap_or_default();
        self.processed += self.cascade(&mut out);
        out
    }

    /// End the stream: flush pipeline stages layer by layer, then the
    /// engine ([`Engine::finish`]). Returns the alerts that raised.
    pub fn finish(&mut self) -> Vec<Alert> {
        let mut out = self.finish_stages();
        out.extend(self.engine.finish());
        out
    }

    /// Pump until every base source ends, then [`finish`](Self::finish);
    /// returns all alerts. Idle rounds (live sources waiting on producers)
    /// sleep briefly instead of spinning.
    pub fn drain(mut self) -> Vec<Alert> {
        let mut alerts = Vec::new();
        let mut deliver = |batch| alerts.extend(batch);
        let _ = self.run_staged(Vec::new(), &mut deliver, &mut |_, _| {});
        alerts
    }

    /// [`drain`](Self::drain) with staged controls: each `(n, op)` applies
    /// unscoped once this session has fed `n` base events — exactly
    /// there, as no round pumps past it — and those staged past the end
    /// apply before the final flush. `deliver` receives the alerts as they
    /// fire, `applied` each control's position and reply; the first
    /// refusal ends the run as `(n, message)`.
    pub fn run_staged(
        &mut self,
        staged: Vec<(u64, Control)>,
        deliver: &mut dyn FnMut(Vec<Alert>),
        applied: &mut dyn FnMut(u64, ControlReply),
    ) -> Result<(), (u64, String)> {
        let unscoped = &Scope::UNSCOPED;
        let mut due = staged.into_iter().peekable();
        let start = self.offset();
        loop {
            let at = self.offset() - start;
            while let Some((pos, op)) = due.next_if(|(pos, _)| *pos <= at) {
                applied(pos, self.control(unscoped, op).map_err(|e| (pos, e))?);
            }
            let next = due.peek().map(|(next, _)| next.saturating_sub(at).max(1));
            let round = self.pump_max(next.map_or(usize::MAX, |n| n as usize));
            let status = round.status;
            deliver(round.alerts);
            match status {
                SessionStatus::Done => break,
                SessionStatus::Active => {}
                SessionStatus::Idle => std::thread::sleep(std::time::Duration::from_millis(1)),
            }
        }
        for (pos, op) in due {
            applied(pos, self.control(unscoped, op).map_err(|e| (pos, e))?);
        }
        deliver(self.finish());
        Ok(())
    }

    // ------------------------------------------------------------------
    // Checkpoint / resume / write-ahead
    // ------------------------------------------------------------------

    /// Write a checkpoint into `config.dir` every `config.every_events`
    /// base events, at pump-round boundaries. Combine with a durable store
    /// source so the recorded offsets are replayable (see
    /// [`resume_at`](Self::resume_at) for the restart side).
    pub fn enable_checkpoints(&mut self, config: CheckpointConfig) {
        self.checkpoints = Some(CheckpointState {
            config,
            since_last: 0,
            last_offset: None,
            failure: None,
        });
    }

    /// Prime a resumed session with the position of the checkpoint its
    /// engine was [restored from](Engine::resume_from): subsequent
    /// [`offset`](Self::offset)s, [`frontier`](Self::frontier)s, and
    /// checkpoints continue the original run's numbering, and the pipeline
    /// adapters continue its derived-event ids. Attach the event suffix
    /// from `checkpoint.offset` in stored order —
    /// [`Deployment::open`](crate::Deployment::open) does all of this.
    pub fn resume_at(&mut self, checkpoint: &Checkpoint) {
        self.base_offset = checkpoint.offset;
        self.base_frontier = checkpoint.frontier;
        self.adapters = checkpoint.adapters.clone();
    }

    /// Install the write-ahead store (before the first round): from now on
    /// every round appends and syncs the base events whose offset is not
    /// yet on disk before the engine consumes them, so a store offset and
    /// [`offset`](Self::offset) denote the same position: the session
    /// continues the store's offset space, unless a later
    /// [`resume_at`](Self::resume_at) positions it at a checkpoint.
    pub(crate) fn write_ahead(&mut self, store: StoreWriter) {
        let persisted = store.len();
        self.base_offset = persisted;
        self.store = Some(WriteAhead {
            store,
            persisted,
            failure: None,
        });
    }

    /// The write-ahead store, if one is installed.
    pub fn store(&self) -> Option<&StoreWriter> {
        self.store.as_ref().map(|ahead| &ahead.store)
    }

    /// The first write-ahead failure: appends stopped there, and every
    /// checkpoint since is refused.
    pub fn store_failure(&self) -> Option<&str> {
        self.store
            .as_ref()
            .and_then(|ahead| ahead.failure.as_deref())
    }

    /// Remove the write-ahead store (to seal it at shutdown); later rounds
    /// append nothing.
    pub fn take_store(&mut self) -> Option<StoreWriter> {
        self.store.take().map(|ahead| ahead.store)
    }

    /// Take a checkpoint right now (regardless of cadence) and write it
    /// atomically into the configured directory: snapshot the engine at
    /// the base offset and stamp the pipeline adapter positions. Requires [`enable_checkpoints`](Self::enable_checkpoints);
    /// refused after a write-ahead failure; clears any recorded cadence
    /// [`checkpoint_failure`](Self::checkpoint_failure) on success.
    pub fn checkpoint_now(&mut self) -> Result<Checkpointed, EngineError> {
        let Some(ck) = self.checkpoints.as_ref() else {
            return Err(EngineError::Checkpoint(
                "checkpoints are not enabled on this session \
                 (call enable_checkpoints first)"
                    .to_string(),
            ));
        };
        let dir = ck.config.dir.clone();
        if let Some(e) = self.store_failure() {
            return Err(EngineError::Checkpoint(format!(
                "durable store write failed: {e}"
            )));
        }
        let offset = self.offset();
        let mut checkpoint = self.engine.checkpoint(offset, self.frontier())?;
        checkpoint.adapters = self.edges.adapter_seqs();
        let path = checkpoint.write_atomic(&dir)?;
        let ck = self.checkpoints.as_mut().expect("checked above");
        ck.since_last = 0;
        ck.last_offset = Some(offset);
        ck.failure = None;
        Ok(Checkpointed { path, offset })
    }

    /// Base events left before the cadence checkpoint is due; `None` when
    /// no cadence is armed (none configured, or stopped by a failure).
    fn cadence_left(&self) -> Option<u64> {
        let ck = self.checkpoints.as_ref()?;
        let armed = ck.config.every_events > 0 && ck.failure.is_none();
        armed.then(|| ck.config.every_events.saturating_sub(ck.since_last))
    }

    /// Take the cadence checkpoint if one is due.
    fn cadence(&mut self) {
        if self.cadence_left() == Some(0) {
            if let Err(e) = self.checkpoint_now() {
                // Remember the first failure instead of failing the pump:
                // the stream keeps flowing, explicit `checkpoint_now`
                // retries.
                if let Some(ck) = self.checkpoints.as_mut() {
                    ck.failure = Some(e);
                }
            }
        }
    }

    /// Whether checkpoints are enabled on this session.
    pub(crate) fn checkpointing(&self) -> bool {
        self.checkpoints.is_some()
    }

    /// Stream offset of the last checkpoint written by this session.
    pub fn last_checkpoint(&self) -> Option<u64> {
        self.checkpoints.as_ref().and_then(|c| c.last_offset)
    }

    /// The first cadence-checkpoint failure, if any. Automatic
    /// checkpointing pauses on failure (the stream itself keeps running);
    /// a successful [`checkpoint_now`](Self::checkpoint_now) clears it and
    /// re-arms the cadence.
    pub fn checkpoint_failure(&self) -> Option<&EngineError> {
        self.checkpoints.as_ref().and_then(|c| c.failure.as_ref())
    }

    /// Events fed to the engine so far *by this session*, pipeline-derived
    /// events included (see [`offset`](Self::offset) for the stream
    /// position).
    pub fn processed(&self) -> u64 {
        self.processed
    }

    /// Global base-stream position: base events processed across this run
    /// and every checkpointed predecessor — the index of the next
    /// unprocessed event in the durable store.
    pub fn offset(&self) -> u64 {
        self.base_offset + self.base
    }

    /// Timestamp of the last event released by the merge — or, on a
    /// resumed session that hasn't passed it yet, the checkpoint's
    /// carried-over frontier.
    pub fn frontier(&self) -> Timestamp {
        self.merge.frontier().max(self.base_frontier)
    }

    /// Sources still attached and not ended.
    pub fn live_sources(&self) -> usize {
        self.merge.live_sources()
    }

    /// Per-source progress: events merged, watermark, lag behind the
    /// leading source, and dropped-late counts — in attach order, detached
    /// sources included.
    pub fn source_stats(&self) -> Vec<(SourceId, SourceStats)> {
        self.merge.source_stats()
    }
}

/// Base events among `events`: all but pipeline-derived `op = alert` ones.
fn base_events(events: &[SharedEvent]) -> u64 {
    events.iter().filter(|e| e.op != Operation::Alert).count() as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::EngineConfig;
    use saql_model::event::EventBuilder;
    use saql_model::{Duration, ProcessInfo};
    use saql_stream::source::{push_source, IterSource};
    use std::sync::Arc;

    fn start(id: u64, host: &str, ts: u64, parent: &str, child: &str) -> SharedEvent {
        Arc::new(
            EventBuilder::new(id, host, ts)
                .subject(ProcessInfo::new(1, parent, "u"))
                .starts_process(ProcessInfo::new(2, child, "u"))
                .build(),
        )
    }

    const WATCH: &str = "proc p1[\"%cmd.exe\"] start proc p2 as e\nreturn p1, p2";

    #[test]
    fn multi_source_session_merges_by_event_time() {
        for workers in [0usize, 2] {
            let mut engine = Engine::new(EngineConfig {
                workers,
                ..EngineConfig::default()
            });
            engine.register("watch", WATCH).unwrap();
            let mut session = engine.session();
            session.attach(IterSource::new(
                "h1",
                vec![
                    start(1, "h1", 10, "cmd.exe", "a.exe"),
                    start(3, "h1", 30, "cmd.exe", "c.exe"),
                ],
            ));
            session.attach(IterSource::new(
                "h2",
                vec![
                    start(2, "h2", 20, "cmd.exe", "b.exe"),
                    start(4, "h2", 40, "cmd.exe", "d.exe"),
                ],
            ));
            let mut alerts = session.drain();
            let mut children: Vec<String> = alerts
                .drain(..)
                .map(|a| a.get("p2").unwrap().to_string())
                .collect();
            children.sort();
            assert_eq!(
                children,
                vec!["a.exe", "b.exe", "c.exe", "d.exe"],
                "workers={workers}"
            );
        }
    }

    #[test]
    fn serial_session_preserves_merged_emission_order() {
        let mut engine = Engine::new(EngineConfig::default());
        engine.register("watch", WATCH).unwrap();
        let mut session = engine.session();
        session.attach(IterSource::new(
            "h1",
            vec![start(1, "h1", 100, "cmd.exe", "x.exe")],
        ));
        session.attach(IterSource::new(
            "h2",
            vec![start(2, "h2", 50, "cmd.exe", "y.exe")],
        ));
        let alerts = session.drain();
        let ts: Vec<u64> = alerts.iter().map(|a| a.ts.as_millis()).collect();
        assert_eq!(ts, vec![50, 100], "event-time order across sources");
    }

    #[test]
    fn pump_interleaves_with_query_control_plane() {
        let mut engine = Engine::new(EngineConfig::default());
        let first = engine.register("watch", WATCH).unwrap();
        let mut session = engine.session();
        session.attach(IterSource::new(
            "feed",
            (0..10u64)
                .map(|i| start(i + 1, "h", (i + 1) * 10, "cmd.exe", "p.exe"))
                .collect::<Vec<_>>(),
        ));
        let mut alerts = Vec::new();
        // Pump half the stream, swap the deployment live, pump the rest.
        while session.processed() < 5 {
            alerts.extend(session.pump_max(1).alerts);
        }
        session.engine().deregister(first).unwrap();
        let rest = session.drain();
        assert_eq!(alerts.len(), 5, "first half watched");
        assert!(rest.is_empty(), "second half unwatched");
    }

    #[test]
    fn sources_attach_and_detach_mid_pump() {
        let mut engine = Engine::new(EngineConfig::default());
        engine.register("watch", WATCH).unwrap();
        let mut session = engine.session_with(MergeConfig {
            lateness: Duration::ZERO,
            ..MergeConfig::default()
        });
        let (push, live) = push_source("live", 8);
        let live_id = session.attach(live);
        push.push(Arc::unwrap_or_clone(start(1, "h2", 5, "cmd.exe", "l.exe")));
        let mut got = 0;
        while got < 1 {
            got += session.pump().alerts.len();
        }
        // A second source attached mid-run; the silent live source would
        // gate it, so detach the live feed and let the iterator finish.
        session.attach(IterSource::new(
            "late-batch",
            vec![start(2, "h1", 50, "cmd.exe", "m.exe")],
        ));
        let stats = session.detach(live_id).unwrap();
        assert_eq!(stats.events, 1);
        assert!(matches!(
            session.detach(live_id),
            Err(EngineError::UnknownSource(id)) if id == live_id
        ));
        let alerts = session.drain();
        assert_eq!(alerts.len(), 1);
        drop(push);
    }

    #[test]
    fn idle_rounds_surface_worker_alerts_on_a_quiet_stream() {
        let mut engine = Engine::new(EngineConfig {
            workers: 2,
            ..EngineConfig::default()
        });
        engine.register("watch", WATCH).unwrap();
        let mut session = engine.session_with(MergeConfig {
            lateness: Duration::ZERO,
            ..MergeConfig::default()
        });
        let (push, live) = push_source("live", 8);
        session.attach(live);
        // Far fewer events than one execution batch, then silence: only
        // pump rounds from here on — no more events, no sync(), no finish().
        for i in 1..=3u64 {
            push.push(Arc::unwrap_or_clone(start(
                i,
                "h",
                i * 10,
                "cmd.exe",
                "x.exe",
            )));
        }
        let deadline = std::time::Instant::now() + std::time::Duration::from_secs(5);
        let mut alerts = 0;
        while alerts < 3 && std::time::Instant::now() < deadline {
            let round = session.pump();
            alerts += round.alerts.len();
            if round.events == 0 {
                std::thread::sleep(std::time::Duration::from_millis(1));
            }
        }
        assert_eq!(alerts, 3, "workers must not sit on a quiet stream's tail");
        drop(push);
    }

    #[test]
    fn session_source_stats_track_drops_and_progress() {
        let mut engine = Engine::new(EngineConfig::default());
        engine.register("watch", WATCH).unwrap();
        let mut session = engine.session();
        // 40ms straggler within the default 1s bound; a 8s straggler beyond
        // it is dropped-late.
        let id = session.attach(IterSource::new(
            "wobbly",
            vec![
                start(1, "h", 10_000, "cmd.exe", "a.exe"),
                start(2, "h", 9_960, "cmd.exe", "b.exe"),
                start(3, "h", 2_000, "cmd.exe", "c.exe"),
            ],
        ));
        let mut alerts = Vec::new();
        loop {
            let round = session.pump();
            alerts.extend(round.alerts);
            if round.status == SessionStatus::Done {
                break;
            }
        }
        assert_eq!(alerts.len(), 2, "straggler re-sorted, too-late dropped");
        assert_eq!(session.processed(), 2);
        assert_eq!(session.frontier().as_millis(), 10_000);
        assert_eq!(session.live_sources(), 0);
        let stats = &session.source_stats()[id.index()].1;
        assert_eq!(stats.pulled, 3);
        assert_eq!(stats.events, 2);
        assert_eq!(stats.dropped_late, 1);
        assert!(stats.done);
        alerts.extend(session.engine().finish());
        assert_eq!(alerts.len(), 2);
    }

    #[test]
    fn checkpoint_cadence_and_exact_resume() {
        let dir = std::env::temp_dir().join(format!("saql-session-ckpt-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let stateful = "proc p write ip i as evt #time(1 min)\n\
                        state ss { n := count() } group by p\n\
                        return p, ss[0].n";
        let write = |id: u64, ts: u64, exe: &str| -> SharedEvent {
            Arc::new(
                EventBuilder::new(id, "h", ts)
                    .subject(ProcessInfo::new(1, exe, "u"))
                    .sends(saql_model::NetworkInfo::new(
                        "10.0.0.2", 44000, "1.1.1.1", 443, "tcp",
                    ))
                    .amount(5)
                    .build(),
            )
        };
        let events: Vec<SharedEvent> = (0..20u64)
            .map(|i| {
                write(
                    i + 1,
                    (i + 1) * 20_000,
                    if i % 2 == 0 { "a.exe" } else { "b.exe" },
                )
            })
            .collect();

        // Uninterrupted reference run.
        let mut full = Engine::new(EngineConfig::default());
        full.register("w", stateful).unwrap();
        let full_alerts: Vec<String> = full
            .run(events.clone())
            .unwrap()
            .iter()
            .map(|a| a.to_string())
            .collect();

        // Interrupted run: checkpoint every 4 events, stop after 11.
        let mut first = Engine::new(EngineConfig::default());
        first.register("w", stateful).unwrap();
        let mut session = first.session();
        session.enable_checkpoints(CheckpointConfig {
            dir: dir.clone(),
            every_events: 4,
        });
        session.attach_with(
            IterSource::new("feed", events.clone()),
            Lateness::ArrivalOrder,
        );
        while session.processed() < 11 {
            session.pump_max(1);
        }
        assert_eq!(session.checkpoint_failure(), None);
        assert_eq!(
            session.last_checkpoint(),
            Some(8),
            "cadence fired at 4 and 8"
        );
        drop(session);
        drop(first); // the "crash": engine dropped, never finished

        // Resume from the on-disk checkpoint and replay the suffix.
        let ckpt = Checkpoint::load(&dir).unwrap();
        assert_eq!(ckpt.offset, 8);
        let mut resumed = Engine::resume_from(ckpt.clone(), EngineConfig::default()).unwrap();
        assert_eq!(resumed.query_names(), vec!["w".to_string()]);
        let mut session = resumed.session();
        session.resume_at(&ckpt);
        assert_eq!(session.offset(), 8, "position carries over");
        session.attach_with(
            IterSource::new("feed", events[ckpt.offset as usize..].to_vec()),
            Lateness::ArrivalOrder,
        );
        let resumed_alerts: Vec<String> = session.drain().iter().map(|a| a.to_string()).collect();

        // The resumed stream must equal the uninterrupted run's suffix:
        // alerts from the checkpoint prefix (events 1..=8 through a fresh,
        // un-finished engine) plus the resumed alerts reproduce the full
        // run exactly, in order.
        let mut combined: Vec<String> = Vec::new();
        let mut pre = Engine::new(EngineConfig::default());
        pre.register("w", stateful).unwrap();
        let mut pre_session = pre.session();
        pre_session.attach_with(
            IterSource::new("feed", events[..8].to_vec()),
            Lateness::ArrivalOrder,
        );
        let mut fed = 0;
        while fed < 8 {
            let round = pre_session.pump_max(8);
            fed += round.events;
            combined.extend(round.alerts.iter().map(|a| a.to_string()));
        }
        combined.extend(resumed_alerts);
        assert_eq!(combined, full_alerts, "prefix + resumed suffix == full run");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpoint_now_requires_enablement() {
        let mut engine = Engine::new(EngineConfig::default());
        let mut session = engine.session();
        let err = session.checkpoint_now().unwrap_err();
        assert!(err.to_string().contains("not enabled"), "{err}");
        assert_eq!(session.last_checkpoint(), None);
    }

    #[test]
    fn run_wrapper_matches_manual_session() {
        // The thin wrapper and an explicit arrival-order session agree even
        // on an unsorted caller-push stream (run's historic contract).
        let events = vec![
            start(1, "h", 300, "cmd.exe", "a.exe"),
            start(2, "h", 100, "cmd.exe", "b.exe"),
            start(3, "h", 200, "cmd.exe", "c.exe"),
        ];
        let mut direct = Engine::new(EngineConfig::default());
        direct.register("watch", WATCH).unwrap();
        let via_run: Vec<String> = direct
            .run(events.clone())
            .unwrap()
            .iter()
            .map(|a| a.to_string())
            .collect();
        let mut manual = Engine::new(EngineConfig::default());
        manual.register("watch", WATCH).unwrap();
        let mut session = manual.session();
        session.attach_with(IterSource::new("run", events), Lateness::ArrivalOrder);
        let via_session: Vec<String> = session.drain().iter().map(|a| a.to_string()).collect();
        assert_eq!(via_run.len(), 3);
        assert_eq!(via_run, via_session);
    }
}
