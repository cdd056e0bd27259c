//! # saql-stream
//!
//! Stream infrastructure for SAQL: the *system event stream* the paper's
//! architecture (Fig. 1) feeds into the anomaly query engine.
//!
//! * [`batch`] — event batches, the engine's unit of execution and of
//!   dispatch to its workers (amortizes channel overhead);
//! * [`merge`] — k-way, timestamp-ordered merging of per-host agent feeds
//!   into the single enterprise-wide stream, including the watermarked
//!   [`merge::WatermarkMerge`] over pull-based sources;
//! * [`ingest`] — the NDJSON ingest stage: JSON-lines bytes decoded on a
//!   small worker pool and handed on in line order, the one decoder behind
//!   serve's ingest connections and `replay --source jsonl:`;
//! * [`source`] — the [`EventSource`] ingestion contract and its adapters:
//!   streamed store selections, JSON-lines readers (on the ingest stage),
//!   push-handle channels (`std::sync::mpsc`, carrying `Arc<Event>` so
//!   concurrent queries share payloads), and [`source::Paced`] pacing. The stream
//!   replayer (paper Fig. 4) is a store selection attached
//!   [`source::FLOOR_GATED`], so the merge sorts it by time, and paced to
//!   a [`source::Speed`];
//! * [`durable`] — the event store (the databases behind the demo's
//!   replayer): the [`StoreWriter`]/[`StoreReader`] pair over a directory
//!   of sealed [`segment`]s plus a WAL tail, with WAL-disciplined appends,
//!   recovery-on-open that truncates a torn tail, and global-offset reads
//!   for exact session resume;
//! * [`store`] — the [`store::Selection`] a store read takes and the
//!   [`store::StoreError`] store operations fail with.

pub mod batch;
pub mod durable;
pub mod ingest;
pub mod merge;
pub mod segment;
pub mod source;
pub mod store;

use std::sync::Arc;

use saql_model::Event;

/// The unit flowing through every SAQL stream: shared, immutable events.
pub type SharedEvent = Arc<Event>;

pub use batch::{batched, BatchView, EventBatch, DEFAULT_BATCH_SIZE};
pub use durable::{StoreIter, StoreReader, StoreWriter};
pub use merge::{Lateness, MergeConfig, MergeStatus, SourceId, SourceStats, WatermarkMerge};
pub use source::{EventSource, SourcePoll};

/// Wrap raw events into shared stream items.
pub fn share(events: impl IntoIterator<Item = Event>) -> Vec<SharedEvent> {
    events.into_iter().map(Arc::new).collect()
}
