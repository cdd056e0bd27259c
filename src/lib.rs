//! # SAQL — Stream-based Anomaly Query Language
//!
//! A from-scratch Rust reproduction of **"Querying Streaming System
//! Monitoring Data for Enterprise System Anomaly Detection"** (Gao et al.,
//! ICDE 2020) — the SAQL system: a stream-based query engine that detects
//! abnormal system behaviors over enterprise-wide system monitoring data in
//! real time.
//!
//! This facade crate re-exports the workspace:
//!
//! * [`model`] — system entities, SVO events, attributes, binary codec;
//! * [`lang`] — the SAQL language: lexer, parser, semantic checker,
//!   pretty-printer, and the paper's query corpus;
//! * [`analytics`] — aggregates, robust statistics, DBSCAN, k-means;
//! * [`stream`] — event channels, k-way host merge, event store, and the
//!   sources the engine pulls from (the replayer is a store source sorted
//!   by its verified floor and paced to a speed);
//! * [`engine`] — multievent matcher, sliding windows, state maintainer,
//!   invariants, cluster stage, alert evaluator, and the master–dependent
//!   concurrent query scheduler;
//! * [`collector`] — the enterprise simulator and APT attack injector;
//! * [`baseline`] — MiniCep, a generic CEP engine used as the comparison
//!   baseline.
//!
//! ## Quickstart
//!
//! ```
//! use saql::SaqlSystem;
//! use saql::collector::{SimConfig, Simulator, TraceSource};
//!
//! // Simulate a small enterprise trace containing the 5-step APT attack.
//! let trace = Simulator::generate(&SimConfig { clients: 4, ..SimConfig::default() });
//!
//! // Deploy the paper's 8 demo queries, then pump the engine from one
//! // event source per monitoring agent: a run session fuses them with a
//! // watermarked K-way merge into the enterprise-wide stream.
//! let mut system = SaqlSystem::new();
//! system.deploy_demo_queries().unwrap();
//! let mut session = system.engine().session();
//! for feed in TraceSource::per_host(&trace) {
//!     session.attach(feed);
//! }
//! let alerts = session.drain();
//! assert!(!alerts.is_empty());
//! ```
//!
//! Pre-merged in-memory streams still run through the thin wrapper
//! [`SaqlSystem::run_events`] / [`Engine::run`].
//!
//! ## Multi-stage pipelines
//!
//! A `|>` query chains stages: each downstream stage consumes its
//! upstream's alert stream as events. Register it with
//! [`engine::register_pipeline`]; the run session under every entry point —
//! [`Engine::run`], a session's `drain`, `saql replay`, `saql serve` —
//! wires, feeds, checkpoints, and flushes the stages itself:
//!
//! ```
//! use saql::collector::{SimConfig, Simulator};
//! use saql::engine::register_pipeline;
//! use saql::{corpus, Engine, EngineConfig};
//!
//! let trace = Simulator::generate(&SimConfig::default());
//! let mut engine = Engine::new(EngineConfig::default());
//! // Stage 1 (`tiered.s1`) summarizes per-host write bursts; stage 2
//! // (`tiered`) fires when enough hosts burst together.
//! register_pipeline(&mut engine, "tiered", corpus::DEMO_TIERED_PIPELINE).unwrap();
//! let alerts = engine.run(saql::stream::share(trace.events)).unwrap();
//! assert!(alerts.iter().any(|a| a.query == "tiered.s1"));
//! assert!(alerts.iter().any(|a| a.query == "tiered"));
//! ```
//!
//! ## Durability & resume
//!
//! Traces persist in a segmented WAL-backed store (`sync()` is the durable
//! ack; a torn tail is repaired on open), and a running session can
//! checkpoint the engine's full state at an exact stream offset. A
//! [`engine::Deployment`] opens every run — the CLI's `demo`, `replay` and
//! `serve` included: fresh, or resumed from its checkpoint with the store
//! suffix replayed in stored order, which reproduces exactly the alerts the
//! uninterrupted run would have emitted:
//!
//! ```
//! use saql::engine::{CheckpointConfig, Deployment, DurableLog, Engine, EngineConfig};
//! use saql::collector::{SimConfig, Simulator};
//! use saql::stream::{StoreReader, StoreWriter};
//!
//! let dir = std::env::temp_dir().join(format!("saql-doc-durable-{}", std::process::id()));
//! let _ = std::fs::remove_dir_all(&dir);
//! let (store_dir, ckpt_dir) = (dir.join("trace.d"), dir.join("ckpt"));
//!
//! // Persist the trace durably: append + sync = acked on disk.
//! let trace = Simulator::generate(&SimConfig { clients: 3, ..SimConfig::default() });
//! let mut store = StoreWriter::create_segmented(&store_dir).unwrap();
//! store.append(&trace.events).unwrap();
//! store.sync().unwrap();
//! drop(store);
//! let log = || DurableLog::Read("trace".into(), StoreReader::open(&store_dir).unwrap());
//!
//! // A checkpointed run, "crashed" mid-stream (dropped, never finished).
//! const COUNT: &str = "proc p write ip i as evt #time(60 s)\n\
//!     state ss { n := count() } group by p\n\
//!     return p, ss[0].n";
//! let deployment = Deployment {
//!     queries: vec![("count-writes".into(), COUNT.into())],
//!     checkpoints: Some(CheckpointConfig { dir: ckpt_dir.clone(), every_events: 0 }),
//!     ..Deployment::default()
//! };
//! let mut run = deployment.open("", Some(log())).unwrap();
//! let mut session = run.session();
//! let before = session.pump_max(500).alerts;
//! let at = session.checkpoint_now().unwrap().offset;
//! drop(session);
//! drop(run);
//!
//! // Resume: the engine restored, the store replayed from the checkpoint's
//! // exact offset (the checkpoint carries the query set).
//! let resumed = Deployment { queries: Vec::new(), resume: true, ..deployment };
//! let mut run = resumed.open("", Some(log())).unwrap();
//! assert_eq!(run.resumed_at(), Some(at));
//! let after = run.session().drain();
//!
//! // Crashed prefix + resumed suffix == the uninterrupted run, exactly.
//! let mut oracle = Engine::new(EngineConfig::default());
//! oracle.register("count-writes", COUNT).unwrap();
//! let full = oracle.run(saql::stream::share(trace.events.clone())).unwrap();
//! let spliced: Vec<String> = before.iter().chain(&after).map(|a| a.to_string()).collect();
//! assert_eq!(spliced, full.iter().map(|a| a.to_string()).collect::<Vec<_>>());
//! # let _ = std::fs::remove_dir_all(&dir);
//! ```

pub use saql_analytics as analytics;
pub use saql_baseline as baseline;
pub use saql_collector as collector;
pub use saql_engine as engine;
pub use saql_lang as lang;
pub use saql_model as model;
pub use saql_serve as serve;
pub use saql_stream as stream;

pub use saql_engine::{Alert, Engine, EngineConfig, QueryId};
pub use saql_lang::corpus;

/// High-level handle: an engine pre-wired for the demo workflow.
pub struct SaqlSystem {
    engine: Engine,
}

impl SaqlSystem {
    /// A fresh system with default configuration.
    pub fn new() -> Self {
        SaqlSystem {
            engine: Engine::new(EngineConfig::default()),
        }
    }

    /// Access the underlying engine.
    pub fn engine(&mut self) -> &mut Engine {
        &mut self.engine
    }

    /// Register one query, returning its control-plane handle (usable with
    /// [`Engine::deregister`], [`Engine::pause`], [`Engine::subscribe`]).
    pub fn deploy(&mut self, name: &str, source: &str) -> Result<QueryId, saql_lang::LangError> {
        self.engine.register(name, source)
    }

    /// Register the paper's eight demonstration queries (five rule-based —
    /// one per attack step — plus the invariant, time-series, and outlier
    /// anomaly queries).
    pub fn deploy_demo_queries(&mut self) -> Result<(), saql_lang::LangError> {
        for (name, source) in corpus::DEMO_QUERIES {
            self.deploy(name, source)?;
        }
        Ok(())
    }

    /// Stream events through and flush; returns every alert.
    ///
    /// The default system runs without workers, so it cannot be in the
    /// finished state [`Engine::run`] rejects — this stays infallible.
    pub fn run_events(&mut self, events: Vec<stream::SharedEvent>) -> Vec<Alert> {
        self.engine
            .run(events)
            .expect("an engine without workers never reports EngineFinished")
    }
}

impl Default for SaqlSystem {
    fn default() -> Self {
        SaqlSystem::new()
    }
}
