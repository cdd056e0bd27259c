//! # saql-engine
//!
//! The SAQL anomaly query engine (paper Fig. 1): takes compiled SAQL queries
//! and a system event stream, and reports detection alerts.
//!
//! Pipeline stages, mirroring the paper's architecture:
//!
//! * **multievent matcher** ([`matcher`]) — matches stream events against the
//!   query's event patterns, maintaining partial matches for temporal
//!   relationships (`with evt1 -> evt2`) and attribute joins (shared
//!   variables);
//! * **state maintainer** ([`window`], [`state`]) — sliding-window management
//!   and per-group incremental aggregation with window history
//!   (`state[3] ss { ... }`);
//! * **invariant models** ([`invariant`]) — per-group invariant training and
//!   violation detection;
//! * **cluster stage** ([`cluster`]) — peer-group outlier detection via
//!   DBSCAN / k-means at window close;
//! * **alert evaluator** ([`eval`]) — expression evaluation over match
//!   bindings, window states, invariants, and cluster outcomes;
//! * **concurrent query scheduler** ([`scheduler`]) — the master–dependent-
//!   query scheme: semantically compatible queries share one copy of the
//!   stream; only group masters touch raw events;
//! * **runtime** (crate-private `runtime` / `shard`) — the one execution
//!   path under [`Engine`]: scheduler groups dealt onto shards, driven in
//!   place on the caller's thread ([`EngineConfig::workers`]` == 0`) or on
//!   worker threads fed every batch over bounded channels, with one
//!   control-message path for every lifecycle operation either way;
//! * **run sessions** ([`session`]) — the one run loop: pluggable
//!   [`saql_stream::EventSource`]s fused by a watermarked K-way merge, `|>`
//!   pipeline stages wired and flushed, cadence checkpoints, and the
//!   write-ahead store tap;
//! * **deployments** ([`deployment`]) — the one way a run opens: engine,
//!   initial queries, checkpoint cadence and resume decided in one place;
//! * **control plane** ([`control`]) — the one vocabulary every surface
//!   changes a running query set with: a [`Control`] applied in a
//!   [`Scope`] by [`RunSession::control`], answering a typed
//!   [`ControlReply`];
//! * **error reporter** ([`error`]) — collects runtime anomalies (evaluation
//!   failures, partial-match overflow) without aborting the stream.
//!
//! Entry points: [`query::RunningQuery`] for a single query,
//! [`scheduler::Scheduler`] for concurrent queries, and the [`Engine`]
//! facade that wires parsing, scheduling and alert collection together —
//! including the live query control plane ([`Engine::register`] /
//! [`Engine::deregister`] / [`Engine::pause`] / [`Engine::subscribe`]),
//! which attaches and detaches queries mid-stream at every worker count.

pub mod alert;
pub mod checkpoint;
pub mod cluster;
pub mod control;
pub mod deployment;
pub mod engine;
pub mod error;
pub mod eval;
pub mod invariant;
pub mod matcher;
pub mod pipeline;
pub mod plan;
pub mod query;
mod runtime;
pub mod scheduler;
pub mod session;
mod shard;
pub mod sink;
pub mod state;
pub mod value;
pub mod window;

pub use alert::Alert;
pub use checkpoint::Checkpoint;
pub use control::{Control, ControlReply, Listed, Scope};
pub use deployment::{Deployment, DurableLog, Run};
pub use engine::{Engine, EngineConfig};
pub use error::{EngineError, ErrorReporter};
pub use pipeline::{
    deregister_pipeline, register_pipeline, register_pipeline_scoped, AlertAdapter, PipelineWiring,
};
pub use query::{QueryId, RunningQuery};
pub use scheduler::Scheduler;
pub use session::{CheckpointConfig, Checkpointed, Pump, RunSession, SessionStatus};
pub use sink::render_alert_json;
pub use value::Value;
