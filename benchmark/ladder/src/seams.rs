//! Every item of the repository this benchmark links, and the rule that
//! goes with the list: nothing else may be imported, here or anywhere else
//! under `benchmark/`. These are the seams ROADMAP says survive the
//! execution-spine clean-up; a change that moves one of them edits this
//! file and nothing else of the benchmark.

pub use saql_engine::{render_alert_json, Alert, Checkpoint, Engine, EngineConfig};
// Pipelines are registered and wired through these two; `Engine::register`
// alone takes single-stage text.
pub use saql_engine::{register_pipeline, PipelineWiring};
pub use saql_engine::{RunSession, SessionStatus};
pub use saql_model::codec::{decode_batch, encode_batch};
pub use saql_model::json::decode_event_json;
pub use saql_model::{Event, Timestamp};
pub use saql_stream::source::IterSource;
pub use saql_stream::{
    BatchView, EventBatch, Lateness, MergeConfig, MergeStatus, SharedEvent, StoreReader,
    StoreWriter, WatermarkMerge,
};
