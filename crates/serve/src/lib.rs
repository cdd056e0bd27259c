//! saql-serve — the networked, multi-tenant serving layer.
//!
//! Everything below this crate is a library embedded in one process; this
//! crate stands the engine up as a *resident service*: a TCP server
//! ([`Server`]) speaking newline-delimited JSON with three connection
//! roles (ingest / control / subscribe, see [`protocol`]), per-tenant
//! resource governance ([`quota`]), a text exposition endpoint
//! (`GET /metrics`, rendered on request from the live session, see
//! [`server`]), and graceful shutdown through the
//! durability path — a final sealed checkpoint plus a synced event store,
//! so a restarted server resumes exactly where the acknowledged stream
//! left off.
//!
//! The threading model is deliberately boring: **one** core thread owns
//! the [`saql_engine::Engine`] and its [`saql_engine::RunSession`] pump
//! loop; every connection gets a plain blocking thread that talks to the
//! core through a bounded request channel (control plane) or a bounded
//! `push_source` event queue, filled a decoded chunk at a time under one
//! lock (data plane). Nothing a client does can
//! block the pump: ingest either sheds on a full buffer (counted) or
//! blocks its own connection thread; control requests are drained between
//! pump rounds. The engine only returns alerts: the core delivers each
//! round's alerts to their queries' subscribers, and a subscriber that
//! falls behind drops alerts (counted) in its bounded channel.

pub mod client;
pub mod protocol;
pub mod quota;
pub mod server;

pub use client::{ctl, ingest_file, ingest_reader, tail_alerts, ClientError, IngestReport};
pub use protocol::{Hello, Request, DEFAULT_TENANT};
pub use quota::{Clock, ManualClock, MonotonicClock, TenantQuota, TokenBucket};
pub use server::{
    install_signal_shutdown, restore_default_sigpipe, signalled, ServeConfig, ServeSummary, Server,
};
