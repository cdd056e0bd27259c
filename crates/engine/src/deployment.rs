//! Deployments: the one way a run is opened.
//!
//! `saql demo`, `saql replay` and `saql serve` each describe their run as a
//! [`Deployment`] — engine and merge settings, the initial queries, the
//! checkpoint cadence, whether to resume — and open it here, so these
//! decisions are made in one place:
//!
//! * **Resume.** [`Checkpoint::load`] → [`Engine::resume_from`] → the
//!   session positioned at the checkpoint ([`RunSession::resume_at`]) → the
//!   durable log's suffix from `checkpoint.offset`, attached with
//!   [`Lateness::ArrivalOrder`]: a log replays in stored order, the order
//!   its offsets count.
//! * **Refused checkpoint.** A checkpoint whose offset is past the end of
//!   the log belongs to another store.
//! * **Refused queries.** A resumed run takes no initial queries: the
//!   checkpoint carries the query set, and registering more would fork the
//!   resumed alert stream.

use saql_stream::merge::{Lateness, MergeConfig};
use saql_stream::source::StoreSource;
use saql_stream::store::StoreError;
use saql_stream::{StoreReader, StoreWriter};

use crate::checkpoint::Checkpoint;
use crate::engine::{Engine, EngineConfig};
use crate::error::EngineError;
use crate::pipeline::register_pipeline_scoped;
use crate::session::{CheckpointConfig, RunSession};

/// Everything that decides how a run opens ([`open`](Deployment::open)).
#[derive(Debug, Clone, Default)]
pub struct Deployment {
    pub engine: EngineConfig,
    /// The session's merge settings (default lateness bound, pull batch).
    pub merge: MergeConfig,
    /// `(name, text)` queries a fresh run registers, in order, through
    /// [`register_pipeline_scoped`] — a `|>` text deploys every stage.
    pub queries: Vec<(String, String)>,
    /// Where and how often the session checkpoints.
    pub checkpoints: Option<CheckpointConfig>,
    /// Restore the engine from the checkpoint in `checkpoints.dir` instead
    /// of starting fresh.
    pub resume: bool,
}

/// The durable store a run's stream offsets index.
pub enum DurableLog {
    /// A stored stream the run replays under the given source name: a fresh
    /// run from its start, a resumed run from the checkpoint's offset.
    Read(String, StoreReader),
    /// The write-ahead store every base event is appended and synced to
    /// before the engine sees it: a fresh run continues its offsets, a
    /// resumed run first replays the suffix past the checkpoint under the
    /// given source name.
    WriteAhead(String, StoreWriter),
}

/// An opened run: the engine, fresh or restored, and what its
/// [`session`](Run::session) installs.
pub struct Run {
    pub engine: Engine,
    merge: MergeConfig,
    checkpoints: Option<CheckpointConfig>,
    /// The position of the checkpoint the engine was restored from.
    resumed: Option<Checkpoint>,
    suffix: Option<StoreSource>,
    write_ahead: Option<StoreWriter>,
}

impl Deployment {
    /// Open the run: restore the engine from the checkpoint, or build it
    /// fresh and register the queries, each named and confined under
    /// `scope` (`""` for none; `saql serve` passes its default tenant's
    /// `tenant/`). The durable `log`, when given, is checked against the
    /// checkpoint and its suffix opened for the session.
    pub fn open(&self, scope: &str, log: Option<DurableLog>) -> Result<Run, EngineError> {
        let refused = |msg: &str| EngineError::Deploy(msg.to_string());
        let checkpoint = match &self.checkpoints {
            _ if !self.resume => None,
            None => return Err(refused("resume requires a checkpoint dir")),
            Some(_) if !self.queries.is_empty() => {
                return Err(refused(
                    "a resumed run restores the checkpointed query set; \
                     drop the initial queries (--demo-queries/--query)",
                ))
            }
            Some(config) => Some(Checkpoint::load(&config.dir)?),
        };
        let offset = checkpoint.as_ref().map(|c| c.offset);
        let (suffix, write_ahead) = match (log, offset) {
            (None, None) => (None, None),
            (None, Some(_)) => return Err(refused("resume requires a durable store")),
            (Some(DurableLog::Read(name, reader)), _) => {
                (Some(suffix(name, &reader, offset.unwrap_or(0))?), None)
            }
            // A fresh write-ahead store replays nothing: it only grows.
            (Some(DurableLog::WriteAhead(_, writer)), None) => (None, Some(writer)),
            (Some(DurableLog::WriteAhead(name, writer)), Some(offset)) => {
                let reader = StoreReader::open(writer.path()).map_err(unreadable)?;
                (Some(suffix(name, &reader, offset)?), Some(writer))
            }
        };
        let (engine, resumed) = match checkpoint {
            Some(checkpoint) => {
                let position = Checkpoint {
                    rows: Vec::new(),
                    adapters: checkpoint.adapters.clone(),
                    ..checkpoint
                };
                (
                    Engine::resume_from(checkpoint, self.engine)?,
                    Some(position),
                )
            }
            None => {
                let mut engine = Engine::new(self.engine);
                for (name, text) in &self.queries {
                    register_pipeline_scoped(&mut engine, &format!("{scope}{name}"), text, scope)
                        .map_err(|e| refused(&format!("query `{name}`:\n{}", e.render(text))))?;
                }
                (engine, None)
            }
        };
        Ok(Run {
            engine,
            merge: self.merge,
            checkpoints: self.checkpoints.clone(),
            resumed,
            suffix,
            write_ahead,
        })
    }
}

/// The log from `offset` on, refused when the offset is past its end.
fn suffix(name: String, reader: &StoreReader, offset: u64) -> Result<StoreSource, EngineError> {
    let len = reader.len();
    if offset > len {
        return Err(EngineError::Deploy(format!(
            "checkpoint offset {offset} is ahead of the durable store ({len} events) — \
             the store and checkpoint dir do not belong together"
        )));
    }
    StoreSource::open_at(name, reader, offset).map_err(unreadable)
}

fn unreadable(e: StoreError) -> EngineError {
    EngineError::Deploy(format!("cannot read the durable store: {e}"))
}

impl Run {
    /// The offset of the checkpoint the run resumed from.
    pub fn resumed_at(&self) -> Option<u64> {
        self.resumed.as_ref().map(|c| c.offset)
    }

    /// The run's session: positioned at the checkpoint when resumed, the
    /// checkpoint cadence installed, the write-ahead store tapped, and the
    /// log's suffix attached in arrival order.
    pub fn session(&mut self) -> RunSession<'_> {
        let mut session = self.engine.session_with(self.merge);
        if let Some(store) = self.write_ahead.take() {
            session.write_ahead(store);
        }
        if let Some(checkpoint) = &self.resumed {
            session.resume_at(checkpoint);
        }
        if let Some(config) = &self.checkpoints {
            session.enable_checkpoints(config.clone());
        }
        if let Some(suffix) = self.suffix.take() {
            session.attach_with(suffix, Lateness::ArrivalOrder);
        }
        session
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::session::SessionStatus;
    use saql_model::event::EventBuilder;
    use saql_model::{Event, ProcessInfo};
    use saql_stream::source::IterSource;
    use std::sync::Arc;

    fn start(id: u64) -> Event {
        EventBuilder::new(id, "h", id * 10)
            .subject(ProcessInfo::new(1, "cmd.exe", "u"))
            .starts_process(ProcessInfo::new(2, "x.exe", "u"))
            .build()
    }

    fn write_ahead(dir: &std::path::Path, events: &[Event]) -> Option<DurableLog> {
        let mut store = if dir.exists() {
            StoreWriter::open(dir).unwrap()
        } else {
            StoreWriter::create_segmented(dir).unwrap()
        };
        store.append(events).unwrap();
        store.sync().unwrap();
        Some(DurableLog::WriteAhead("_resume".into(), store))
    }

    fn refusal(deployment: &Deployment, log: Option<DurableLog>) -> String {
        match deployment.open("", log) {
            Ok(_) => panic!("the deployment must be refused"),
            Err(e) => e.to_string(),
        }
    }

    #[test]
    fn a_write_ahead_log_continues_fresh_and_resumes_at_the_checkpoint() {
        let root = std::env::temp_dir().join(format!("saql-deploy-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let store = root.join("store.d");
        let fresh = Deployment {
            queries: vec![(
                "watch".into(),
                "proc p1[\"%cmd.exe\"] start proc p2 as e\nreturn p1, p2".into(),
            )],
            checkpoints: Some(CheckpointConfig {
                dir: root.join("ckpt"),
                every_events: 0,
            }),
            ..Deployment::default()
        };

        // Fresh: the store's five events are history, not input.
        let history: Vec<Event> = (1..=5).map(start).collect();
        let mut run = fresh.open("", write_ahead(&store, &history)).unwrap();
        let mut session = run.session();
        assert_eq!(session.offset(), 5);
        let live = (6..=8).map(|i| Arc::new(start(i))).collect::<Vec<_>>();
        session.attach_with(IterSource::new("live", live), Lateness::ArrivalOrder);
        let mut alerts = 0;
        loop {
            let round = session.pump();
            alerts += round.alerts.len();
            if round.status == SessionStatus::Done {
                break;
            }
        }
        assert_eq!(alerts, 3);
        assert_eq!(session.checkpoint_now().unwrap().offset, 8);
        drop(session);
        drop(run);

        // Resumed: no queries; the suffix acked after the checkpoint
        // replays.
        let resumed = Deployment {
            resume: true,
            ..fresh.clone()
        };
        assert!(refusal(&resumed, None).contains("checkpointed query set"));
        let resumed = Deployment {
            queries: Vec::new(),
            ..resumed
        };
        assert!(refusal(&resumed, None).contains("requires a durable store"));
        let mut run = resumed.open("", write_ahead(&store, &[start(9)])).unwrap();
        assert_eq!(run.resumed_at(), Some(8));
        assert_eq!(run.session().drain().len(), 1, "event 9 replays");

        // A checkpoint past the end of its log belongs to another store.
        let err = refusal(&resumed, write_ahead(&root.join("short.d"), &[start(1)]));
        assert!(err.contains("do not belong together"), "{err}");
        let _ = std::fs::remove_dir_all(&root);
    }
}
