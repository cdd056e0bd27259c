//! The serving core: a TCP listener, per-connection threads, and **one**
//! core thread that owns the engine.
//!
//! ## Threading model
//!
//! ```text
//!   accept thread ──spawns──▶ connection threads
//!        │                        │ ingest: the NDJSON stage (read loop ─▶
//!        │                        │   saql-decode ─▶ saql-apply) ─chunk of
//!        │                        │   Events─▶ push_source queue ──────────┐
//!        │                        │ control: Req over ctrl chan ───────────┤
//!        │                        │ subscribe: Alert receiver ◀────────────┤
//!        ▼                        ▼                                        ▼
//!          core thread: drain ctrl → session pump → deliver the round's
//!                       alerts → park until rung
//! ```
//!
//! The core thread is the only one touching the [`Engine`] / [`RunSession`],
//! and the one that makes each ingested event an `Arc<Event>` (when its
//! merge polls the push source) and frees it. Connection threads never
//! block it: ingest goes through bounded `push_source` queues
//! (shed-and-count by default, connection-blocking in lossless mode),
//! control requests queue on a bounded channel drained
//! between pump rounds, and a subscriber's bounded channel drops the alerts
//! it has no room for (counted).
//!
//! ## Alert delivery
//!
//! The engine only returns alerts. The core hands every alert it gets back
//! — a pump round's, the resume replay's, the final flush's — to its
//! delivery table once, at the end of that round: it counts and times the
//! alert per query, prints it with `print_alerts`, and sends a copy to each
//! subscriber of its query. A deregistered query's flush comes back with
//! the round after the deregistration; its subscribers are dropped once
//! that round is delivered, so their sockets close after the flush. At
//! shutdown the core collects what the engine still holds before the final
//! checkpoint or flush, so no alert is left undelivered.
//!
//! ## Ingest hand-off
//!
//! An ingest connection decodes through [`saql_stream::ingest`], the one
//! NDJSON stage (`replay --source jsonl:` runs on it too), and the unit
//! that crosses into the core is its decoded chunk, not the event. The
//! connection's sink, on the stage's apply thread, takes quota for a whole
//! chunk with one clock read and one bucket lock, then moves the granted
//! events into its `push_source` queue in order, as many as fit under one
//! lock: a lossless connection waits for room, woken once per drain of a
//! full queue, and any other sheds the tail that does not fit. The core
//! takes up to a round's budget per source without waiting, wrapping each
//! event in its `Arc` as it takes it, and when a round finds
//! nothing it *parks* on the control channel until a request or a chunk's
//! `Req::Wake` arrives. At most one wake is queued at a time, and the std
//! channel wakes only a parked receiver, so a busy core is never signalled
//! (a futex syscall) per event or per chunk. The park keeps a bounded
//! timeout for the degraded-source log, drain deadlines and a
//! worker-backed engine's late alerts.
//!
//! ## Metrics
//!
//! `GET /metrics` is rendered on request, on the core thread, like a
//! `stats` reply, and each number on it is read from the one place it
//! lives: the session (position, sources, queries), the connection table
//! (ingest counts, summed per tenant) and the core's delivery table
//! (delivered and dropped alerts and their latency, the only series the
//! session cannot answer). Nothing is copied into a registry between
//! requests, so the page and `stats` always agree, and a deregistered
//! query's session series leave the page. Label values are escaped as the
//! text format specifies, so no name can forge a series line.
//!
//! ## Durability
//!
//! The run itself — engine, initial queries, checkpoint cadence, resume —
//! opens through the configured [`Deployment`]; serve adds the write-ahead
//! store, the sockets, tenancy and quotas on top.
//!
//! With a durable store configured, every pump round's base events are
//! appended **and synced** before the engine consumes them (the session's
//! [`DurableLog::WriteAhead`] tap): one append + sync per round, and a
//! tapped round drains what is ready, up to the budget and the next
//! cadence checkpoint, so under a backlog one fsync covers every waiting
//! event. The store offset equals the session offset at every round
//! boundary, and any checkpoint the session writes is covered by synced
//! events. An ingest connection's final
//! summary line (`"durable":true`) is therefore a real acknowledgement:
//! those events survive a crash. On graceful shutdown the server writes one
//! final checkpoint and seals the store — restart with `resume` and the
//! session continues at the exact event it stopped at, open windows and
//! matcher state included. A store write failure is treated as fatal: the
//! server stops checkpointing, drains, and reports the error rather than
//! acknowledging events it can no longer persist.

use std::collections::{BTreeMap, HashMap, HashSet};
use std::fmt::Write as _;
use std::io::{self, BufRead, BufReader, Read, Write as IoWrite};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

use saql_analytics::Histogram;
use saql_engine::query::QueryStats;
use saql_engine::{
    render_alert_json, Alert, Deployment, DurableLog, Engine, QueryId, Run, RunSession, Scope,
    SessionStatus,
};
use saql_stream::ingest::{decode_ndjson, DecodedChunk, MAX_LINE};
use saql_stream::merge::{Lateness, SourceId, SourceStats};
use saql_stream::source::{push_source, ChannelSource, PushHandle};
use saql_stream::StoreWriter;

use crate::protocol::{self, err_line, json_array, ok_line, Hello, JsonObj, Request};
use crate::quota::{Clock, MonotonicClock, TenantQuota, TokenBucket};

/// Events fed per pump round before the control plane gets a turn.
const ROUND_BUDGET: usize = 65_536;
/// Pause after a failed `accept` (an `EMFILE` storm must not spin).
const ACCEPT_BACKOFF: std::time::Duration = std::time::Duration::from_millis(25);
/// Socket read timeout — the granularity at which blocked connection
/// threads notice shutdown.
const READ_TIMEOUT: std::time::Duration = std::time::Duration::from_millis(100);
/// Minimum spacing between looks for newly degraded sources; also the
/// longest an idle core parks.
const OBSERVE_EVERY: Duration = Duration::from_millis(100);
/// The idle park of a worker-backed core: its workers finish alerts after
/// the round that fed them, and only a round collects them.
const WORKER_POLL: Duration = Duration::from_millis(2);
/// Alerts buffered per subscriber; a full channel drops (and counts) the
/// alerts it has no room for.
const SUBSCRIPTION_BACKLOG: usize = 1024;

// ---------------------------------------------------------------------
// Configuration
// ---------------------------------------------------------------------

/// Everything a [`Server`] needs to stand up.
pub struct ServeConfig {
    /// Bind address (`127.0.0.1:0` picks a free port — see
    /// [`Server::addr`]).
    pub listen: String,
    /// The run: engine and merge settings (the lateness bound is the
    /// default for watermark-merged ingest connections), initial queries
    /// (registered under the default tenant), checkpoint cadence (plus a
    /// final checkpoint at shutdown), and resume — which replays the
    /// durable store suffix before serving live traffic.
    pub deployment: Deployment,
    /// Capacity of each ingest connection's event channel.
    pub ingest_buffer: usize,
    /// Quota applied to tenants without an explicit override.
    pub quota: TenantQuota,
    /// Per-tenant quota overrides.
    pub tenant_quotas: Vec<(String, TenantQuota)>,
    /// Write-ahead event store directory; `None` serves memory-only.
    pub durable_store: Option<PathBuf>,
    /// Print every alert to stdout (the smoke-test surface).
    pub print_alerts: bool,
    /// Time source for quotas and latency metrics.
    pub clock: Arc<dyn Clock>,
    /// How long shutdown waits for live sources to drain.
    pub drain_grace: std::time::Duration,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            listen: "127.0.0.1:7878".to_string(),
            deployment: Deployment::default(),
            ingest_buffer: 4096,
            quota: TenantQuota::default(),
            tenant_quotas: Vec::new(),
            durable_store: None,
            print_alerts: false,
            clock: Arc::new(MonotonicClock::new()),
            drain_grace: std::time::Duration::from_secs(5),
        }
    }
}

/// What a finished server did, returned by [`Server::wait`].
#[derive(Debug, Default)]
pub struct ServeSummary {
    /// Events fed to the engine (including resume replay).
    pub events: u64,
    /// Alerts raised.
    pub alerts: u64,
    /// Final checkpoint written at shutdown, if checkpointing was on.
    pub checkpoint: Option<PathBuf>,
    /// Durable store length at shutdown, if a store was configured.
    pub store_len: Option<u64>,
}

// ---------------------------------------------------------------------
// Shared state
// ---------------------------------------------------------------------

/// Per-connection ingest accounting, kept after the connection closes so
/// `stats` and the metrics page show the full picture.
#[derive(Default)]
struct ConnStat {
    tenant: String,
    source: String,
    events: AtomicU64,
    decode_errors: AtomicU64,
    shed_quota: AtomicU64,
    shed_buffer: AtomicU64,
    done: AtomicBool,
}

impl ConnStat {
    /// Events handed to the core, decode errors, quota sheds, buffer sheds.
    fn counts(&self) -> [u64; 4] {
        [
            &self.events,
            &self.decode_errors,
            &self.shed_quota,
            &self.shed_buffer,
        ]
        .map(|n| n.load(Ordering::Relaxed))
    }
}

/// One tenant's governance state.
struct Tenant {
    quota: TenantQuota,
    bucket: Mutex<TokenBucket>,
}

/// The tenant registry: default quota plus per-name overrides, tenants
/// materialized on first contact.
struct Tenants {
    map: Mutex<HashMap<String, Arc<Tenant>>>,
    default_quota: TenantQuota,
    overrides: HashMap<String, TenantQuota>,
    clock: Arc<dyn Clock>,
}

impl Tenants {
    fn get(&self, name: &str) -> Arc<Tenant> {
        let mut map = self.map.lock().unwrap();
        if let Some(t) = map.get(name) {
            return Arc::clone(t);
        }
        let quota = self
            .overrides
            .get(name)
            .copied()
            .unwrap_or(self.default_quota);
        let tenant = Arc::new(Tenant {
            quota,
            bucket: Mutex::new(TokenBucket::for_quota(&quota, self.clock.now_ns())),
        });
        map.insert(name.to_string(), Arc::clone(&tenant));
        tenant
    }
}

/// State shared by the accept loop, connection threads, and core thread.
struct Shared {
    ctrl: SyncSender<Req>,
    /// A [`Req::Wake`] is queued and not yet handled.
    rung: AtomicBool,
    tenants: Tenants,
    conns: Mutex<Vec<Arc<ConnStat>>>,
    shutdown: AtomicBool,
    ingest_buffer: usize,
    clock: Arc<dyn Clock>,
    conn_seq: AtomicU64,
}

impl Shared {
    fn stopping(&self) -> bool {
        self.shutdown.load(Ordering::SeqCst)
    }

    /// Wake the core for work it cannot see arriving (an ingest chunk, a
    /// shutdown): queue one [`Req::Wake`] unless one is already on its way.
    fn ring(&self) {
        if !self.rung.swap(true, Ordering::SeqCst) && self.ctrl.try_send(Req::Wake).is_err() {
            // A full queue keeps the core busy anyway; the next ring retries.
            self.rung.store(false, Ordering::SeqCst);
        }
    }

    /// The control scope of `tenant`: its name prefix and live-query quota.
    fn scope(&self, tenant: &str) -> Scope {
        Scope {
            prefix: format!("{tenant}/"),
            max_live: self.tenants.get(tenant).quota.max_live_queries,
        }
    }

    /// Each tenant's [`ConnStat::counts`], summed over its connections,
    /// closed ones included.
    fn ingest_totals(&self) -> BTreeMap<String, [u64; 4]> {
        let mut totals = BTreeMap::<String, [u64; 4]>::new();
        let conns = self
            .conns
            .lock()
            .expect("no connection table holder panics");
        for conn in conns.iter() {
            let sums = totals.entry(conn.tenant.clone()).or_default();
            for (sum, n) in sums.iter_mut().zip(conn.counts()) {
                *sum += n;
            }
        }
        totals
    }

    /// Queue a request for the core thread and wait for the reply; `None`
    /// once the core is gone.
    fn ask<T>(&self, req: impl FnOnce(SyncSender<T>) -> Req) -> Option<T> {
        let (reply_tx, reply_rx) = sync_channel(1);
        // A refused request drops its reply sender: `recv` fails at once.
        let _ = self.ctrl.send(req(reply_tx));
        reply_rx.recv().ok()
    }
}

/// A request from a connection thread to the core thread. Replies travel
/// over per-request one-slot channels; a dropped reply sender means the
/// core is gone.
enum Req {
    /// There is work to look for: see [`Shared::ring`].
    Wake,
    Attach {
        source: ChannelSource,
        arrival_order: bool,
        reply: SyncSender<SourceId>,
    },
    WaitDrained {
        id: SourceId,
        reply: SyncSender<DrainReport>,
    },
    Control {
        tenant: String,
        cmd: Request,
        reply: SyncSender<String>,
    },
    Subscribe {
        tenant: String,
        query: String,
        reply: SyncSender<Result<Receiver<Alert>, String>>,
    },
    /// Render the `/metrics` page.
    Metrics { reply: SyncSender<String> },
}

/// Final per-source accounting handed back when an ingest connection's
/// source drains.
struct DrainReport {
    stats: SourceStats,
    /// The events are in a synced durable store.
    durable: bool,
}

// ---------------------------------------------------------------------
// Server handle
// ---------------------------------------------------------------------

/// A running serving instance. [`start`](Server::start) spawns the accept
/// and core threads and returns immediately; [`wait`](Server::wait) joins
/// them (blocking until something — a control `shutdown`, a signal relay
/// via [`request_shutdown`](Server::request_shutdown), or a fatal store
/// error — stops the core).
pub struct Server {
    addr: SocketAddr,
    shared: Arc<Shared>,
    core: Option<JoinHandle<Result<ServeSummary, String>>>,
    accept: Option<JoinHandle<()>>,
}

impl Server {
    pub fn start(cfg: ServeConfig) -> Result<Server, String> {
        // The write-ahead store is the run's durable log: a resume
        // replays its suffix (under `_resume/`) before going live.
        let log = match &cfg.durable_store {
            Some(path) => Some(DurableLog::WriteAhead(
                "_resume/store".to_string(),
                if path.exists() {
                    StoreWriter::open(path)
                } else {
                    StoreWriter::create_segmented(path)
                }
                .map_err(|e| e.to_string())?,
            )),
            None => None,
        };
        let scope = format!("{}/", protocol::DEFAULT_TENANT);
        let run = cfg
            .deployment
            .open(&scope, log)
            .map_err(|e| e.to_string())?;

        let listener = TcpListener::bind(&cfg.listen).map_err(|e| e.to_string())?;
        let addr = listener.local_addr().map_err(|e| e.to_string())?;

        let (ctrl_tx, ctrl_rx) = sync_channel::<Req>(1024);
        let shared = Arc::new(Shared {
            ctrl: ctrl_tx,
            rung: AtomicBool::new(false),
            tenants: Tenants {
                map: Mutex::new(HashMap::new()),
                default_quota: cfg.quota,
                overrides: cfg.tenant_quotas.iter().cloned().collect(),
                clock: Arc::clone(&cfg.clock),
            },
            conns: Mutex::new(Vec::new()),
            shutdown: AtomicBool::new(false),
            ingest_buffer: cfg.ingest_buffer.max(1),
            clock: Arc::clone(&cfg.clock),
            conn_seq: AtomicU64::new(0),
        });

        let accept = {
            let shared = Arc::clone(&shared);
            thread::Builder::new()
                .name("saql-serve-accept".into())
                .spawn(move || run_accept(listener, shared))
                .map_err(|e| e.to_string())?
        };
        let core = {
            let shared = Arc::clone(&shared);
            thread::Builder::new()
                .name("saql-serve-core".into())
                .spawn(move || {
                    let out = run_core(run, cfg, &shared, ctrl_rx);
                    // Whatever stopped the core stops the listener too.
                    shared.shutdown.store(true, Ordering::SeqCst);
                    out
                })
                .map_err(|e| e.to_string())?
        };

        Ok(Server {
            addr,
            shared,
            core: Some(core),
            accept: Some(accept),
        })
    }

    /// The bound address (resolves `:0` binds).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Begin graceful shutdown: stop accepting, drain live sources (within
    /// the grace period), seal the store, write the final checkpoint.
    pub fn request_shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        self.shared.ring();
    }

    /// The core thread has exited (shutdown finished or a fatal error).
    pub fn is_finished(&self) -> bool {
        match &self.core {
            Some(handle) => handle.is_finished(),
            None => true,
        }
    }

    /// Join the server, blocking until it stops, and return its summary
    /// (dropping it then joins the accept thread).
    pub fn wait(mut self) -> Result<ServeSummary, String> {
        let core = self.core.take().expect("the core is joined once");
        core.join()
            .unwrap_or_else(|_| Err("serve core thread panicked".into()))
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.request_shutdown();
        if let Some(handle) = self.core.take() {
            let _ = handle.join();
        }
        // The accept loop blocks in `accept`: with shutdown flagged, wake
        // it with one loopback connection to the bound port (of the same
        // address family when the bind address is unspecified). Refused
        // once the loop is gone: nothing left to wake.
        if let Some(handle) = self.accept.take() {
            let mut wake = self.addr;
            if wake.ip().is_unspecified() {
                wake.set_ip(match wake {
                    SocketAddr::V4(_) => std::net::Ipv4Addr::LOCALHOST.into(),
                    SocketAddr::V6(_) => std::net::Ipv6Addr::LOCALHOST.into(),
                });
            }
            let _ = TcpStream::connect_timeout(&wake, Duration::from_secs(1));
            let _ = handle.join();
        }
    }
}

// ---------------------------------------------------------------------
// Core thread
// ---------------------------------------------------------------------

/// What was delivered of one query name's alerts: how many, their latency
/// in microseconds (from the start of the round that raised them to its
/// end), and how many a full subscriber channel dropped.
#[derive(Default)]
struct Delivery {
    alerts: u64,
    latency_us: Histogram,
    dropped: u64,
}

/// The core's delivery table: every alert the engine returns passes
/// [`deliver`](Fanout::deliver) once, which counts and times it, prints it
/// on request and fans it out to its query's subscribers.
struct Fanout {
    print: bool,
    clock: Arc<dyn Clock>,
    subscribers: HashMap<QueryId, Vec<SyncSender<Alert>>>,
    /// By full query name; an entry outlives its query.
    delivered: BTreeMap<String, Delivery>,
}

impl Fanout {
    /// A channel for `id`'s alerts, from the next delivery on.
    fn subscribe(&mut self, id: QueryId) -> Receiver<Alert> {
        let (tx, rx) = sync_channel(SUBSCRIPTION_BACKLOG);
        self.subscribers.entry(id).or_default().push(tx);
        rx
    }

    /// Deliver the alerts of a round that started at clock reading
    /// `anchor`. A full channel drops (and counts) rather than stall the
    /// core or the other subscribers, a hung-up one is pruned, and a query
    /// `engine` no longer holds loses its subscribers once this round —
    /// the one its flush came back with — is delivered.
    fn deliver(&mut self, alerts: &[Alert], anchor: u64, engine: &Engine) {
        let latency_us = self.clock.now_ns().saturating_sub(anchor) / 1_000;
        for alert in alerts {
            if !self.delivered.contains_key(&alert.query) {
                self.delivered
                    .insert(alert.query.clone(), Delivery::default());
            }
            let delivery = self.delivered.get_mut(&alert.query).expect("added");
            delivery.alerts += 1;
            delivery.latency_us.record(latency_us);
            if self.print {
                println!("{alert}");
            }
            if let Some(senders) = self.subscribers.get_mut(&alert.query_id) {
                senders.retain(|tx| match tx.try_send(alert.clone()) {
                    Err(TrySendError::Full(_)) => {
                        delivery.dropped += 1;
                        true
                    }
                    sent => sent.is_ok(),
                });
            }
        }
        self.subscribers
            .retain(|id, senders| !senders.is_empty() && engine.contains(*id));
    }

    /// Alerts delivered, and dropped, in total.
    fn totals(&self) -> (u64, u64) {
        let each = self.delivered.values();
        each.fold((0, 0), |(n, d), q| (n + q.alerts, d + q.dropped))
    }
}

/// One pump round, its alerts delivered at its end.
fn pump(session: &mut RunSession<'_>, fanout: &mut Fanout) -> SessionStatus {
    let anchor = fanout.clock.now_ns();
    let round = session.pump_max(ROUND_BUDGET);
    fanout.deliver(&round.alerts, anchor, session.engine());
    round.status
}

fn run_core(
    mut run: Run,
    cfg: ServeConfig,
    sh: &Shared,
    ctrl_rx: Receiver<Req>,
) -> Result<ServeSummary, String> {
    let mut summary = ServeSummary::default();
    let mut fatal: Option<String> = None;
    let mut fanout = Fanout {
        print: cfg.print_alerts,
        clock: Arc::clone(&cfg.clock),
        subscribers: HashMap::new(),
        delivered: BTreeMap::new(),
    };
    // The session appends + syncs each round's base events before the
    // engine consumes them, so every checkpoint it writes is covered.
    let resumed = run.resumed_at();
    let mut session = run.session();

    // Resume: replay the store suffix past the checkpoint to exactly the
    // pre-shutdown state *before* opening for live traffic (live attaches
    // stay queued on the control channel meanwhile, so the replay cannot
    // interleave with — or re-read — fresh appends).
    if let Some(offset) = resumed {
        while pump(&mut session, &mut fanout) != SessionStatus::Done {}
        eprintln!(
            "[serve] resumed at offset {offset}, replayed {} stored events",
            session.processed()
        );
    }

    let mut waiters: Vec<(SourceId, SyncSender<DrainReport>)> = Vec::new();
    let mut degraded: HashSet<String> = HashSet::new();
    let mut last_observe = Instant::now();
    let mut drain_deadline: Option<Instant> = None;
    let mut checkpoint_warned = false;
    let workers = session.engine().workers() > 0;
    let park = if workers { WORKER_POLL } else { OBSERVE_EVERY };

    while fatal.is_none() {
        // Control plane between rounds.
        while let Ok(req) = ctrl_rx.try_recv() {
            handle_req(req, &mut session, &mut fanout, &mut waiters, sh);
        }

        // Judged with the control queue just found empty: a request still
        // queued (an attach, a drain wait) is served before the core stops.
        if sh.stopping() {
            let deadline = *drain_deadline.get_or_insert_with(|| Instant::now() + cfg.drain_grace);
            if session.live_sources() == 0 || Instant::now() >= deadline {
                break;
            }
        }

        let status = pump(&mut session, &mut fanout);
        if let Some(e) = session.store_failure() {
            // Durability is the contract; without it, stop rather than
            // acknowledge events the store will not remember.
            fatal = Some(format!("durable store write failed: {e}"));
            break;
        }
        // The cadence stops on its first failure (a `checkpoint` command
        // retries and re-arms it): say so once.
        match session.checkpoint_failure() {
            Some(e) if !checkpoint_warned => {
                eprintln!("[serve] checkpointing stopped: {e}");
                checkpoint_warned = true;
            }
            Some(_) => {}
            None => checkpoint_warned = false,
        }

        if last_observe.elapsed() >= OBSERVE_EVERY {
            last_observe = Instant::now();
            observe(&session, &mut degraded);
        }

        if !waiters.is_empty() {
            answer_waiters(&session, &mut waiters, false);
        }

        if status != SessionStatus::Active {
            // Nothing flowed: sleep until a request or an ingest chunk's
            // wake arrives, instead of polling.
            if let Ok(req) = ctrl_rx.recv_timeout(park) {
                handle_req(req, &mut session, &mut fanout, &mut waiters, sh);
            }
        }
    }

    answer_waiters(&session, &mut waiters, true);
    observe(&session, &mut degraded);

    // The engine keeps a control-plane alert (a deregistered query's
    // flush) for its next return, and a worker may still hold some: take
    // them, so they reach their subscribers before the stream ends.
    let anchor = fanout.clock.now_ns();
    let mut last = session.engine().sync().unwrap_or_default();
    // End the stream while the store is writable: a checkpoint when the
    // run is to be continued — its open windows must survive into the
    // resumed incarnation — else the final flush.
    if fatal.is_none() {
        if cfg.deployment.checkpoints.is_some() {
            match session.checkpoint_now() {
                Ok(written) => summary.checkpoint = Some(written.path),
                Err(e) => fatal = Some(format!("final checkpoint failed: {e}")),
            }
        } else {
            last.extend(session.finish());
        }
        if let Some(e) = session.store_failure() {
            fatal = Some(format!("durable store write failed: {e}"));
        }
    }
    fanout.deliver(&last, anchor, session.engine());
    summary.events = session.processed();
    summary.alerts = fanout.totals().0;
    if let Some(mut writer) = session.take_store() {
        let sealed = writer.seal().and_then(|_| writer.sync());
        if let (Err(e), None) = (sealed, &fatal) {
            fatal = Some(format!("sealing the durable store failed: {e}"));
        }
        summary.store_len = Some(writer.len());
    }
    // Dropping the delivery table disconnects subscriber channels; their
    // connection threads notice and exit.
    drop(fanout);
    drop(session);
    drop(run);

    match fatal {
        Some(e) => Err(e),
        None => Ok(summary),
    }
}

/// Answer the ingest connections waiting for their source to drain — at
/// shutdown (`last`) every one of them, with whatever state it reached.
fn answer_waiters(
    session: &RunSession<'_>,
    waiters: &mut Vec<(SourceId, SyncSender<DrainReport>)>,
    last: bool,
) {
    let stats = session.source_stats();
    let durable = session.store().is_some() && session.store_failure().is_none();
    waiters.retain(|(id, reply)| {
        // Unknown source: drop the reply; the waiter sees a disconnect and
        // reports "not drained".
        let Some((_, ss)) = stats.iter().find(|(sid, _)| sid == id) else {
            return false;
        };
        // `done` alone is not drained: the exhausted source's tail can
        // still sit buffered in the K-way merge, gated by another source's
        // watermark — and events still buffered there have not reached the
        // durable tap, so acking them would overstate coverage.
        let drained = ss.done && ss.buffered == 0;
        if drained || last {
            let _ = reply.send(DrainReport {
                stats: ss.clone(),
                durable: durable && drained,
            });
        }
        !(drained || last)
    });
}

/// Handle one control-plane request on the core thread, between rounds.
fn handle_req(
    req: Req,
    session: &mut RunSession<'_>,
    fanout: &mut Fanout,
    waiters: &mut Vec<(SourceId, SyncSender<DrainReport>)>,
    sh: &Shared,
) {
    match req {
        // Cleared before the round that follows, so a chunk handed off
        // from here on queues a fresh wake.
        Req::Wake => sh.rung.store(false, Ordering::SeqCst),
        Req::Attach {
            source,
            arrival_order,
            reply,
        } => {
            let id = if arrival_order {
                session.attach_with(source, Lateness::ArrivalOrder)
            } else {
                // Session default: the configured lateness bound.
                session.attach(source)
            };
            let _ = reply.send(id);
        }
        Req::WaitDrained { id, reply } => waiters.push((id, reply)),
        Req::Subscribe {
            tenant,
            query,
            reply,
        } => {
            let found = sh.scope(&tenant).find(session.engine(), &query);
            let _ = reply.send(found.map(|id| fanout.subscribe(id)));
        }
        Req::Metrics { reply } => {
            let mut page = String::with_capacity(4096);
            let _ = write_metrics(&mut page, session, fanout, sh);
            let _ = reply.send(page);
        }
        Req::Control { tenant, cmd, reply } => {
            let line = match cmd {
                Request::Stats => render_stats(&tenant, session, fanout, sh),
                Request::Shutdown => {
                    sh.shutdown.store(true, Ordering::SeqCst);
                    JsonObj::new()
                        .bool("ok", true)
                        .bool("draining", true)
                        .finish()
                }
                Request::Control(op) => match session.control(&sh.scope(&tenant), op) {
                    Ok(applied) => protocol::reply_line(&applied),
                    Err(e) => err_line(&e),
                },
            };
            let _ = reply.send(line);
        }
    }
}

/// The `stats` control response: engine position, this tenant's queries,
/// sources, connections, and quota standing.
fn render_stats(
    tenant: &str,
    session: &mut RunSession<'_>,
    fanout: &Fanout,
    sh: &Shared,
) -> String {
    let prefix = format!("{tenant}/");
    let offset = session.offset();
    let frontier = session.frontier().as_millis();
    let live_sources = session.live_sources() as u64;
    let sources = session.source_stats();
    let durable_events = session.store().map_or(0, StoreWriter::len);
    let durable = session.store().is_some();
    let engine = session.engine();

    let stats_by_name: HashMap<String, QueryStats> = engine.query_stats().into_iter().collect();
    let queries: Vec<String> = engine
        .query_ids()
        .into_iter()
        .filter_map(|id| {
            let full = engine.name_of(id)?;
            let bare = full.strip_prefix(&prefix)?;
            let qs = stats_by_name.get(full).copied().unwrap_or_default();
            let dropped = fanout.delivered.get(full).map_or(0, |d| d.dropped);
            Some(
                JsonObj::new()
                    .str("name", bare)
                    .u64("id", id.index() as u64)
                    .bool("paused", engine.is_paused(id))
                    .u64("events_seen", qs.events_seen)
                    .u64("events_matched", qs.events_matched)
                    .u64("windows_closed", qs.windows_closed)
                    .u64("alerts", qs.alerts)
                    .u64("late_events", qs.late_events)
                    .u64("dropped_alerts", dropped)
                    .finish(),
            )
        })
        .collect();

    let source_items: Vec<String> = sources
        .iter()
        .filter(|(_, ss)| ss.name.starts_with(&prefix) || ss.name.starts_with("_resume/"))
        .map(|(_, ss)| {
            JsonObj::new()
                .str("name", &ss.name)
                .u64("events", ss.events)
                .u64("pulled", ss.pulled)
                .u64("dropped_late", ss.dropped_late)
                .u64("buffered", ss.buffered as u64)
                .u64("watermark_ms", ss.watermark.as_millis())
                .u64("lag_ms", ss.lag.as_millis())
                .bool("done", ss.done)
                .opt_str("failure", ss.failure.as_deref())
                .finish()
        })
        .collect();

    let conns: Vec<String> = sh
        .conns
        .lock()
        .unwrap()
        .iter()
        .filter(|c| c.tenant == tenant)
        .map(|c| {
            JsonObj::new()
                .str("source", &c.source)
                .u64("events", c.events.load(Ordering::Relaxed))
                .u64("decode_errors", c.decode_errors.load(Ordering::Relaxed))
                .u64("shed_quota", c.shed_quota.load(Ordering::Relaxed))
                .u64("shed_buffer", c.shed_buffer.load(Ordering::Relaxed))
                .bool("done", c.done.load(Ordering::Relaxed))
                .finish()
        })
        .collect();

    let tenant_gov = sh.tenants.get(tenant);
    let totals = sh.ingest_totals();
    let shed = totals.get(tenant).map_or(0, |&[_, _, shed, _]| shed);
    let quota = JsonObj::new()
        .u64("max_live_queries", tenant_gov.quota.max_live_queries as u64)
        .u64("events_per_sec", tenant_gov.quota.events_per_sec)
        .u64("burst", tenant_gov.quota.effective_burst())
        .u64("shed", shed)
        .finish();
    let engine_obj = JsonObj::new()
        .u64("offset", offset)
        .u64("frontier_ms", frontier)
        .u64("live_sources", live_sources)
        .u64("dropped_alerts", fanout.totals().1)
        .u64("durable_events", durable_events)
        .bool("durable", durable)
        .finish();

    JsonObj::new()
        .bool("ok", true)
        .str("tenant", tenant)
        .raw("engine", &engine_obj)
        .raw("queries", &json_array(queries))
        .raw("sources", &json_array(source_items))
        .raw("connections", &json_array(conns))
        .raw("quota", &quota)
        .finish()
}

/// Quantiles a latency histogram expands to, after `count` and `mean`.
const LATENCY_STATS: [(&str, f64); 3] = [("p50", 0.50), ("p95", 0.95), ("p99", 0.99)];

/// A family of per-source or per-query series and the field it shows.
type Series<T> = (&'static str, fn(&T) -> u64);

/// A label value as the text format writes it: `\`, `"` and newline
/// escaped, so a name cannot end its series line or start another.
fn label(value: &str) -> String {
    let value = value.replace('\\', "\\\\").replace('"', "\\\"");
    value.replace('\n', "\\n")
}

/// Write the `/metrics` page: a `name{labels} value` line per series, each
/// family's lines together.
fn write_metrics(
    out: &mut String,
    session: &mut RunSession<'_>,
    fanout: &Fanout,
    sh: &Shared,
) -> std::fmt::Result {
    let position = [
        ("offset", session.offset()),
        ("frontier_ms", session.frontier().as_millis()),
        ("live_sources", session.live_sources() as u64),
    ];
    let sources = session.source_stats();
    let engine = session.engine();
    let counts = [
        ("live_queries", engine.query_names().len() as u64),
        ("dropped_alerts_total", fanout.totals().1),
    ];
    for (name, value) in position.into_iter().chain(counts) {
        writeln!(out, "saql_engine_{name} {value}")?;
    }

    let source_series: [Series<SourceStats>; 4] = [
        ("saql_source_events_total", |s| s.events),
        ("saql_source_lag_ms", |s| s.lag.as_millis()),
        ("saql_source_watermark_ms", |s| s.watermark.as_millis()),
        ("saql_source_dropped_late_total", |s| s.dropped_late),
    ];
    for (family, value) in source_series {
        for (_, ss) in &sources {
            let source = label(&ss.name);
            writeln!(out, "{family}{{source=\"{source}\"}} {}", value(ss))?;
        }
    }
    let failed = sources
        .iter()
        .filter(|(_, ss)| ss.failure.is_some())
        .count();
    if failed > 0 {
        writeln!(out, "saql_source_failures_total {failed}")?;
    }

    let mut queries = engine.query_stats();
    queries.sort_unstable_by(|(a, _), (b, _)| a.cmp(b));
    let query_series: [Series<QueryStats>; 3] = [
        ("saql_query_events_total", |q| q.events_seen),
        ("saql_query_alerts_total", |q| q.alerts),
        ("saql_query_late_events_total", |q| q.late_events),
    ];
    for (family, value) in query_series {
        for (name, qs) in &queries {
            let name = label(name);
            writeln!(out, "{family}{{query=\"{name}\"}} {}", value(qs))?;
        }
    }

    // In `ConnStat::counts` order.
    let ingest_series = [
        ("events_total", ""),
        ("decode_failures_total", ""),
        ("shed_total", ",reason=\"quota\""),
        ("shed_total", ",reason=\"buffer\""),
    ];
    let totals = sh.ingest_totals();
    for (i, (family, reason)) in ingest_series.into_iter().enumerate() {
        for (tenant, counts) in &totals {
            let tenant = label(tenant);
            let series = format!("saql_ingest_{family}{{tenant=\"{tenant}\"{reason}}}");
            writeln!(out, "{series} {}", counts[i])?;
        }
    }

    for (query, Delivery { alerts, .. }) in &fanout.delivered {
        let query = label(query);
        writeln!(
            out,
            "saql_alerts_delivered_total{{query=\"{query}\"}} {alerts}"
        )?;
    }
    for (query, d) in &fanout.delivered {
        let hist = &d.latency_us;
        let (Some(mean), Some(max)) = (hist.mean(), hist.max()) else {
            continue;
        };
        let query = label(query);
        let series = format!("saql_delivery_latency_us{{query=\"{query}\",stat=");
        writeln!(out, "{series}\"count\"}} {}", hist.count())?;
        writeln!(out, "{series}\"mean\"}} {mean:.1}")?;
        for (stat, q) in LATENCY_STATS {
            let v = hist.quantile(q).unwrap_or(max);
            writeln!(out, "{series}\"{stat}\"}} {v}")?;
        }
        writeln!(out, "{series}\"max\"}} {max}")?;
    }
    Ok(())
}

/// Surface newly degraded sources (a failed source must not look like a
/// clean short stream); the page counts them as
/// `saql_source_failures_total`.
fn observe(session: &RunSession<'_>, degraded: &mut HashSet<String>) {
    for (_, ss) in session.source_stats() {
        if let Some(failure) = &ss.failure {
            if degraded.insert(ss.name.clone()) {
                eprintln!("[serve] source {} degraded: {failure}", ss.name);
            }
        }
    }
}

// ---------------------------------------------------------------------
// Accept loop and connection handlers
// ---------------------------------------------------------------------

/// Blocks in `accept`; `Server`'s drop wakes it for shutdown.
fn run_accept(listener: TcpListener, sh: Arc<Shared>) {
    let mut handles: Vec<JoinHandle<()>> = Vec::new();
    for accepted in listener.incoming() {
        if sh.stopping() {
            break;
        }
        match accepted {
            Ok(stream) => {
                let sh = Arc::clone(&sh);
                if let Ok(handle) = thread::Builder::new()
                    .name("saql-serve-conn".into())
                    .spawn(move || handle_conn(stream, &sh))
                {
                    handles.push(handle);
                }
                handles.retain(|h| !h.is_finished());
            }
            Err(_) => thread::sleep(ACCEPT_BACKOFF),
        }
    }
    for handle in handles {
        let _ = handle.join();
    }
}

/// A connection's read half. It rides out the read-timeout ticks that let
/// a blocked read notice shutdown, so a partial line survives them, and
/// fails once shutdown is flagged.
struct NetRead<'a> {
    stream: TcpStream,
    sh: &'a Shared,
}

impl Read for NetRead<'_> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        loop {
            match self.stream.read(buf) {
                Err(e)
                    if matches!(
                        e.kind(),
                        io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut
                    ) =>
                {
                    if self.sh.stopping() {
                        return Err(io::Error::other("server is shutting down"));
                    }
                }
                read => return read,
            }
        }
    }
}

type NetReader<'a> = BufReader<NetRead<'a>>;

/// Read one line of at most [`MAX_LINE`] bytes into `buf`, cleared first:
/// `Ok(true)` for a line (the last may lack its newline), `Ok(false)` at
/// the end of input, an error for a longer line, left unread past the cap.
fn read_line(reader: &mut NetReader<'_>, buf: &mut Vec<u8>) -> io::Result<bool> {
    buf.clear();
    let n = reader.take(MAX_LINE as u64).read_until(b'\n', buf)?;
    if n == MAX_LINE && buf.last() != Some(&b'\n') {
        return Err(io::Error::other(format!("line exceeds {MAX_LINE} bytes")));
    }
    Ok(n > 0)
}

fn write_line(stream: &mut TcpStream, mut line: String) -> io::Result<()> {
    // One write, so a line is one segment under `TCP_NODELAY`.
    line.push('\n');
    stream.write_all(line.as_bytes())
}

/// Answer with an `"ok":false` line; the caller then ends the connection.
fn refuse(stream: &mut TcpStream, error: &str) {
    let _ = write_line(stream, err_line(error));
}

fn handle_conn(stream: TcpStream, sh: &Shared) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(READ_TIMEOUT));
    let Ok(read_half) = stream.try_clone() else {
        return;
    };
    let mut reader = BufReader::new(NetRead {
        stream: read_half,
        sh,
    });
    let mut writer = stream;
    let mut buf = Vec::new();
    match read_line(&mut reader, &mut buf) {
        Ok(true) => {}
        Ok(false) => return,
        Err(e) => return refuse(&mut writer, &e.to_string()),
    }
    let line = String::from_utf8_lossy(&buf);
    if line.starts_with("GET ") {
        serve_metrics(&mut reader, &mut writer, sh);
        return;
    }
    match protocol::parse_hello(&line) {
        Err(e) => refuse(&mut writer, &e),
        Ok(Hello::Ingest {
            tenant,
            source,
            arrival_order,
            lossless,
        }) => run_ingest(
            &mut reader,
            &mut writer,
            sh,
            tenant,
            source,
            arrival_order,
            lossless,
        ),
        Ok(Hello::Control { tenant }) => run_control(&mut reader, &mut writer, sh, tenant),
        Ok(Hello::Subscribe { tenant, query }) => {
            run_subscribe(&mut writer, sh, tenant, query);
        }
    }
}

/// Minimal HTTP/1.0 exposition so `curl addr/metrics` works.
fn serve_metrics(reader: &mut NetReader<'_>, writer: &mut TcpStream, sh: &Shared) {
    // Swallow the request headers (bounded) so the client sees a clean
    // response instead of a reset.
    let mut line = Vec::new();
    for _ in 0..64 {
        match read_line(reader, &mut line) {
            Ok(true) if !line.trim_ascii().is_empty() => {}
            _ => break,
        }
    }
    let Some(body) = sh.ask(|reply| Req::Metrics { reply }) else {
        let _ = writer.write_all(b"HTTP/1.0 503 Service Unavailable\r\n\r\n");
        return;
    };
    let response = format!(
        "HTTP/1.0 200 OK\r\nContent-Type: text/plain; charset=utf-8\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    let _ = writer.write_all(response.as_bytes());
}

#[allow(clippy::too_many_arguments)]
fn run_ingest(
    reader: &mut NetReader<'_>,
    writer: &mut TcpStream,
    sh: &Shared,
    tenant: String,
    source: String,
    arrival_order: bool,
    lossless: bool,
) {
    let tenant_gov = sh.tenants.get(&tenant);
    let seq = sh.conn_seq.fetch_add(1, Ordering::Relaxed);
    let source_name = format!("{tenant}/{source}#{seq}");
    let (push, channel) = push_source(&source_name, sh.ingest_buffer);

    let attach = |reply| Req::Attach {
        source: channel,
        arrival_order,
        reply,
    };
    let Some(source_id) = sh.ask(attach) else {
        return refuse(writer, "server is shutting down");
    };
    let stat = Arc::new(ConnStat {
        tenant: tenant.clone(),
        source: source_name,
        ..ConnStat::default()
    });
    sh.conns.lock().unwrap().push(Arc::clone(&stat));
    if write_line(writer, ok_line()).is_err() {
        return;
    }

    // The NDJSON stage decodes the socket's lines; this connection's sink
    // applies quota, hand-off and accounting a chunk at a time in line
    // order — so `decode_errors` and the first-error message do not depend
    // on how lines were chunked, nor does quota under a frozen clock. A
    // read error (shutdown, a reset) ends the input like a close does.
    let mut apply = Apply {
        sh,
        tenant: &tenant_gov,
        stat: &stat,
        push: &push,
        lossless,
    };
    let _ = decode_ndjson(reader, |chunk| apply.apply(chunk));
    // End the source (all handles dropped) and wait for the engine to
    // drain it, then acknowledge with the final accounting.
    drop(push);
    let report = sh.ask(|reply| Req::WaitDrained {
        id: source_id,
        reply,
    });
    stat.done.store(true, Ordering::Relaxed);

    let mut summary = JsonObj::new()
        .bool("ok", true)
        .bool("done", true)
        .u64("events", stat.events.load(Ordering::Relaxed))
        .u64("decode_errors", stat.decode_errors.load(Ordering::Relaxed))
        .u64("shed_quota", stat.shed_quota.load(Ordering::Relaxed))
        .u64("shed_buffer", stat.shed_buffer.load(Ordering::Relaxed));
    summary = match &report {
        Some(r) => summary
            .bool("durable", r.durable)
            .u64("released", r.stats.events)
            .u64("dropped_late", r.stats.dropped_late)
            .opt_str("failure", r.stats.failure.as_deref()),
        None => summary.bool("durable", false),
    };
    let _ = write_line(writer, summary.finish());
}

/// The sink of one ingest connection's NDJSON stage: decode accounting,
/// quota and the hand-off to the core, one decoded chunk at a time in line
/// order.
struct Apply<'a> {
    sh: &'a Shared,
    tenant: &'a Tenant,
    stat: &'a ConnStat,
    push: &'a PushHandle,
    lossless: bool,
}

impl Apply<'_> {
    /// Apply one decoded chunk: the head of it that the bucket grants goes
    /// to the core in order, and the core is rung; `false` once the core is
    /// gone.
    fn apply(&mut self, chunk: DecodedChunk) -> bool {
        let mut events = chunk.events;
        self.stat
            .decode_errors
            .fetch_add(chunk.failed, Ordering::Relaxed);
        if let Some(note) = chunk.failure {
            // Live degradation surface: the paired ChannelSource's
            // failure() — and so the session's per-source stats — reports
            // this while the stream keeps flowing.
            self.push.report_failure(note);
        }
        let (now, n) = (self.sh.clock.now_ns(), events.len() as u64);
        let granted = self.tenant.bucket.lock().unwrap().take(now, n);
        self.stat
            .shed_quota
            .fetch_add(n - granted, Ordering::Relaxed);
        events.truncate(granted as usize);
        if events.is_empty() {
            return true;
        }
        let mut open = self.push.push_chunk(&mut events, false);
        if open && self.lossless && !events.is_empty() {
            // Full: ring the core, which drains, and wait for room for the
            // rest. Blocking here stalls the pipeline's bounded channels,
            // and TCP backpressure reaches the producer.
            self.sh.ring();
            open = self.push.push_chunk(&mut events, true);
        }
        let shed = events.len() as u64;
        self.stat
            .events
            .fetch_add(granted - shed, Ordering::Relaxed);
        if open {
            // Also after a wait: the core may have gone idle meanwhile.
            self.sh.ring();
            self.stat.shed_buffer.fetch_add(shed, Ordering::Relaxed);
        }
        open
    }
}

fn run_control(reader: &mut NetReader<'_>, writer: &mut TcpStream, sh: &Shared, tenant: String) {
    if write_line(writer, ok_line()).is_err() {
        return;
    }
    let mut buf = Vec::new();
    loop {
        match read_line(reader, &mut buf) {
            Ok(true) => {}
            Ok(false) => break,
            Err(e) => return refuse(writer, &e.to_string()),
        }
        let line = String::from_utf8_lossy(&buf).into_owned();
        if line.trim().is_empty() {
            continue;
        }
        let response = match protocol::parse_control(&line) {
            Err(e) => err_line(&e),
            Ok(cmd) => {
                let tenant = tenant.clone();
                sh.ask(|reply| Req::Control { tenant, cmd, reply })
                    .unwrap_or_else(|| err_line("server is shutting down"))
            }
        };
        if write_line(writer, response).is_err() {
            break;
        }
    }
}

fn run_subscribe(writer: &mut TcpStream, sh: &Shared, tenant: String, query: String) {
    let subscribe = |reply| Req::Subscribe {
        tenant,
        query,
        reply,
    };
    let receiver = match sh.ask(subscribe) {
        Some(Ok(receiver)) => receiver,
        Some(Err(e)) => return refuse(writer, &e),
        None => return refuse(writer, "server is shutting down"),
    };
    if write_line(writer, ok_line()).is_err() {
        return;
    }
    // Ends when the query is deregistered or the engine drops (the
    // channel disconnects), or when the subscriber hangs up.
    while let Ok(alert) = receiver.recv() {
        if write_line(writer, render_alert_json(&alert)).is_err() {
            return;
        }
    }
}

// ---------------------------------------------------------------------
// Signals
// ---------------------------------------------------------------------

#[cfg(unix)]
mod sig {
    use std::sync::atomic::{AtomicBool, Ordering};

    pub(super) static SIGNALLED: AtomicBool = AtomicBool::new(false);

    type Handler = extern "C" fn(i32);
    /// `SIG_DFL`: the signal's default action.
    const DEFAULT: usize = 0;
    extern "C" {
        /// `handler` is a [`Handler`] address or [`DEFAULT`].
        fn signal(signum: i32, handler: usize) -> usize;
    }
    extern "C" fn mark(_sig: i32) {
        SIGNALLED.store(true, Ordering::SeqCst);
    }

    pub(super) fn install() {
        // SIGINT and SIGTERM; the handler only flips an atomic, which the
        // serve loop polls — everything heavier (drain, seal, checkpoint)
        // happens on normal threads.
        let mark = mark as Handler as usize;
        unsafe {
            signal(2, mark);
            signal(15, mark);
        }
    }

    pub(super) fn default_sigpipe() {
        unsafe {
            signal(13, DEFAULT);
        }
    }
}

/// Restore SIGPIPE's default action, which the Rust runtime sets to
/// "ignore": a command-line process whose stdout reader went away (`saql
/// ... | head`) then ends quietly instead of panicking on its next print.
/// No-op off unix.
pub fn restore_default_sigpipe() {
    #[cfg(unix)]
    sig::default_sigpipe();
}

/// Install SIGINT/SIGTERM handlers that request graceful shutdown; poll
/// [`signalled`] and relay to [`Server::request_shutdown`]. No-op off unix.
pub fn install_signal_shutdown() {
    #[cfg(unix)]
    sig::install();
}

/// A termination signal has been received since
/// [`install_signal_shutdown`].
pub fn signalled() -> bool {
    #[cfg(unix)]
    {
        sig::SIGNALLED.load(std::sync::atomic::Ordering::SeqCst)
    }
    #[cfg(not(unix))]
    {
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::quota::ManualClock;
    use saql_engine::{CheckpointConfig, Control, EngineConfig};
    use saql_model::event::EventBuilder;
    use saql_model::{FileInfo, ProcessInfo};
    use saql_stream::{EventSource, SourcePoll};
    use std::sync::mpsc::TryRecvError;

    /// A decoded chunk of the events `ids`, as the NDJSON stage hands it
    /// to a connection's sink.
    fn chunk(ids: std::ops::Range<u64>) -> DecodedChunk {
        let events = ids.map(|id| {
            EventBuilder::new(id, "h", 1000 + id)
                .subject(ProcessInfo::new(1, "a.exe", "u"))
                .starts_process(ProcessInfo::new(2, "b.exe", "u"))
                .build()
        });
        DecodedChunk {
            events: events.collect(),
            ..DecodedChunk::default()
        }
    }

    /// One ingest connection's surroundings: a server's shared state with
    /// no core thread, its control queue held here instead.
    struct Rig {
        sh: Shared,
        ctrl_rx: Receiver<Req>,
        tenant: Arc<Tenant>,
        stat: Arc<ConnStat>,
    }

    impl Rig {
        fn new(events_per_sec: u64, burst: u64) -> Rig {
            let quota = TenantQuota {
                max_live_queries: 1,
                events_per_sec,
                burst,
            };
            let clock: Arc<dyn Clock> = ManualClock::new(); // frozen at 0
            let (ctrl, ctrl_rx) = sync_channel(16);
            let sh = Shared {
                ctrl,
                rung: AtomicBool::new(false),
                tenants: Tenants {
                    map: Mutex::new(HashMap::new()),
                    default_quota: quota,
                    overrides: HashMap::new(),
                    clock: Arc::clone(&clock),
                },
                conns: Mutex::new(Vec::new()),
                shutdown: AtomicBool::new(false),
                ingest_buffer: 4096,
                clock,
                conn_seq: AtomicU64::new(0),
            };
            let stat = Arc::new(ConnStat {
                tenant: "t".into(),
                ..ConnStat::default()
            });
            sh.conns.lock().unwrap().push(Arc::clone(&stat));
            Rig {
                tenant: sh.tenants.get("t"),
                sh,
                ctrl_rx,
                stat,
            }
        }

        fn apply<'a>(&'a self, push: &'a PushHandle, lossless: bool) -> Apply<'a> {
            Apply {
                sh: &self.sh,
                tenant: &self.tenant,
                stat: &self.stat,
                push,
                lossless,
            }
        }

        /// Tenant `t`'s ingest counts as the page sums them: events,
        /// decode errors, quota sheds, buffer sheds.
        fn count(&self) -> [u64; 4] {
            self.sh.ingest_totals()["t"]
        }
    }

    fn drained_ids(source: &mut ChannelSource) -> Vec<u64> {
        let mut out = Vec::new();
        while source.poll(&mut out, 1024) == SourcePoll::Ready {}
        out.iter().map(|e| e.id).collect()
    }

    #[test]
    fn one_chunk_takes_quota_once_and_sheds_the_tail() {
        let rig = Rig::new(10, 5);
        let (push, mut source) = push_source("t/src#0", 4096);
        assert!(rig.apply(&push, true).apply(chunk(0..64)));
        assert_eq!(drained_ids(&mut source), vec![0, 1, 2, 3, 4]);
        assert_eq!(rig.stat.events.load(Ordering::Relaxed), 5);
        assert_eq!(rig.stat.shed_quota.load(Ordering::Relaxed), 59);
        assert_eq!(rig.count(), [5, 0, 59, 0]);
    }

    #[test]
    fn a_full_buffer_sheds_the_chunk_tail_in_order() {
        let rig = Rig::new(0, 0);
        let (push, mut source) = push_source("t/src#0", 10);
        let mut apply = rig.apply(&push, false);
        assert!(apply.apply(chunk(0..4)));
        assert!(apply.apply(chunk(4..24)));
        // 4 buffered, room for 6 more: the head of the chunk goes in, the
        // other 14 shed one by one in the counters.
        assert_eq!(drained_ids(&mut source), (0..10).collect::<Vec<_>>());
        assert_eq!(rig.stat.events.load(Ordering::Relaxed), 10);
        assert_eq!(rig.stat.shed_buffer.load(Ordering::Relaxed), 14);
        assert_eq!(rig.count(), [10, 0, 0, 14]);
        // With room again, the next chunk goes in whole.
        assert!(apply.apply(chunk(24..30)));
        assert_eq!(drained_ids(&mut source), (24..30).collect::<Vec<_>>());
    }

    #[test]
    fn a_lossless_chunk_larger_than_the_buffer_arrives_whole_and_in_order() {
        let rig = Rig::new(0, 0);
        let (push, mut source) = push_source("t/src#0", 3);
        let consumer = thread::spawn(move || {
            let mut ids = Vec::new();
            let mut out = Vec::new();
            loop {
                match source.poll(&mut out, 2) {
                    SourcePoll::End => return ids,
                    SourcePoll::Ready => ids.extend(out.drain(..).map(|e| e.id)),
                    SourcePoll::Idle => thread::yield_now(),
                }
            }
        });
        assert!(rig.apply(&push, true).apply(chunk(0..64)));
        drop(push);
        assert_eq!(consumer.join().unwrap(), (0..64).collect::<Vec<_>>());
        assert_eq!(rig.stat.events.load(Ordering::Relaxed), 64);
        assert_eq!(rig.stat.shed_buffer.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn decode_failures_are_counted_and_surface_live() {
        let rig = Rig::new(0, 0);
        let (push, mut source) = push_source("t/src#0", 4096);
        let mut apply = rig.apply(&push, true);
        assert!(apply.apply(chunk(0..64)));
        let note = "2 undecodable line(s); first at line 70: invalid JSON at byte 0: x";
        assert!(apply.apply(DecodedChunk {
            failed: 2,
            failure: Some(note.to_string()),
            ..chunk(64..126)
        }));
        assert_eq!(rig.stat.decode_errors.load(Ordering::Relaxed), 2);
        assert_eq!(rig.count()[1], 2);
        assert_eq!(rig.stat.events.load(Ordering::Relaxed), 126);
        assert_eq!(source.failure().as_deref(), Some(note));
        assert_eq!(drained_ids(&mut source).len(), 126);
    }

    #[test]
    fn handed_off_chunks_queue_at_most_one_wake() {
        let rig = Rig::new(0, 0);
        let (push, _source) = push_source("t/src#0", 4096);
        let mut apply = rig.apply(&push, true);
        for first in [1, 11, 21] {
            assert!(apply.apply(chunk(first - 1..first + 9)));
        }
        assert!(matches!(rig.ctrl_rx.try_recv(), Ok(Req::Wake)));
        assert!(rig.ctrl_rx.try_recv().is_err(), "one wake for three chunks");
        // Once the core has handled it, the next chunk queues a fresh one.
        rig.sh.rung.store(false, Ordering::SeqCst);
        assert!(apply.apply(chunk(30..40)));
        assert!(matches!(rig.ctrl_rx.try_recv(), Ok(Req::Wake)));
        // A chunk that is shed whole hands nothing off and wakes nobody.
        let rig = Rig::new(10, 1);
        let (push, _source) = push_source("t/src#0", 4096);
        let mut apply = rig.apply(&push, true);
        assert!(apply.apply(chunk(0..1)));
        assert!(rig.ctrl_rx.try_recv().is_ok());
        rig.sh.rung.store(false, Ordering::SeqCst);
        assert!(apply.apply(chunk(1..9)));
        assert!(rig.ctrl_rx.try_recv().is_err());
    }

    /// An engine running a rule query `q` and a window query `w` (open
    /// windows, nothing raised yet), and one alert of `q`'s.
    fn fanout_rig() -> (Engine, QueryId, QueryId, Alert) {
        let mut engine = Engine::new(EngineConfig::default());
        let q = engine
            .register("q", "proc p start proc c as e\nreturn p, c")
            .unwrap();
        let w = engine
            .register("w", "proc p write file f as evt #time(10 min)\nstate ss { n := count() } group by p\nreturn p, ss[0].n")
            .unwrap();
        let write = EventBuilder::new(1, "h", 1_000)
            .subject(ProcessInfo::new(1, "w.exe", "u"))
            .writes_file(FileInfo::new("/x"))
            .build();
        assert!(engine.process(&Arc::new(write)).unwrap().is_empty());
        let start = chunk(2..3).events.remove(0);
        let alerts = engine.process(&Arc::new(start)).unwrap();
        assert_eq!(alerts.len(), 1);
        let alert = alerts.into_iter().next().unwrap();
        (engine, q, w, alert)
    }

    fn fanout() -> Fanout {
        Fanout {
            print: false,
            clock: ManualClock::new(),
            subscribers: HashMap::new(),
            delivered: BTreeMap::new(),
        }
    }

    #[test]
    fn a_subscriber_sees_only_its_querys_alerts() {
        let (mut engine, q, w, alert) = fanout_rig();
        let mut fanout = fanout();
        let (to_q, to_w) = (fanout.subscribe(q), fanout.subscribe(w));
        fanout.deliver(&[alert.clone(), alert], 0, &engine);
        let flush = engine.sync().unwrap();
        assert!(flush.is_empty(), "w's window is still open");
        engine.deregister(w).unwrap();
        fanout.deliver(&engine.sync().unwrap(), 0, &engine);
        let got_q: Vec<Alert> = to_q.try_iter().collect();
        assert_eq!(got_q.len(), 2);
        assert!(got_q.iter().all(|a| a.query_id == q));
        let got_w: Vec<Alert> = to_w.try_iter().collect();
        assert_eq!(got_w.len(), 1, "w's flush");
        assert_eq!(got_w[0].query_id, w);
        assert_eq!(fanout.totals(), (3, 0));
        assert_eq!(fanout.delivered["q"].alerts, 2);
        // The round that carried w's flush closed w's subscription.
        assert!(matches!(to_w.try_recv(), Err(TryRecvError::Disconnected)));
        assert!(matches!(to_q.try_recv(), Err(TryRecvError::Empty)));
    }

    #[test]
    fn a_full_channel_drops_and_counts_without_stalling_the_others() {
        let (engine, q, _, alert) = fanout_rig();
        let mut fanout = fanout();
        let (stuck, reader) = (fanout.subscribe(q), fanout.subscribe(q));
        let backlog = vec![alert; SUBSCRIPTION_BACKLOG];
        fanout.deliver(&backlog, 0, &engine);
        assert_eq!(reader.try_iter().count(), SUBSCRIPTION_BACKLOG);
        fanout.deliver(&backlog[..3], 0, &engine);
        assert_eq!(reader.try_iter().count(), 3, "the reader keeps receiving");
        assert_eq!(fanout.totals().1, 3);
        assert_eq!(fanout.delivered["q"].dropped, 3);
        assert_eq!(stuck.try_iter().count(), SUBSCRIPTION_BACKLOG);
        // A hung-up receiver is pruned, without counting drops; a query
        // whose every receiver hung up leaves the table.
        drop(reader);
        drop(stuck);
        fanout.deliver(&backlog[..1], 0, &engine);
        assert_eq!(fanout.totals().1, 3);
        assert!(fanout.subscribers.is_empty(), "hung-up receivers pruned");
    }

    #[test]
    fn a_flush_deregistered_in_the_last_drain_reaches_its_subscriber() {
        // Subscribe, deregister and shut down in the core's first control
        // drain, so no round runs between the deregistration and the end
        // of the stream — with and without a final checkpoint.
        for checkpointed in [false, true] {
            let dir = std::env::temp_dir().join(format!(
                "saql-serve-last-drain-{}-{checkpointed}",
                std::process::id()
            ));
            let _ = std::fs::remove_dir_all(&dir);
            let checkpoints = checkpointed.then(|| CheckpointConfig {
                dir: dir.clone(),
                every_events: 0,
            });
            let query = "proc p write file f as evt #time(10 min)\n\
                         state ss { n := count() } group by p\nreturn p, ss[0].n";
            let deployment = Deployment {
                queries: vec![("w".into(), query.into())],
                checkpoints,
                ..Deployment::default()
            };
            let mut run = deployment.open("t/", None).unwrap();
            for id in 0..5 {
                let write = EventBuilder::new(id, "h", 1_000 + id)
                    .subject(ProcessInfo::new(1, "w.exe", "u"))
                    .writes_file(FileInfo::new("/x"))
                    .build();
                assert!(run.engine.process(&Arc::new(write)).unwrap().is_empty());
            }
            let Rig { sh, ctrl_rx, .. } = Rig::new(0, 0);
            let (sub_tx, sub_rx) = sync_channel(1);
            let (ctl_tx, ctl_rx) = sync_channel(2);
            let control = |cmd| Req::Control {
                tenant: "t".into(),
                cmd,
                reply: ctl_tx.clone(),
            };
            sh.ctrl
                .send(Req::Subscribe {
                    tenant: "t".into(),
                    query: "w".into(),
                    reply: sub_tx,
                })
                .unwrap();
            let deregister = Control::Deregister { name: "w".into() };
            sh.ctrl.send(control(Request::Control(deregister))).unwrap();
            sh.ctrl.send(control(Request::Shutdown)).unwrap();
            let cfg = ServeConfig {
                deployment,
                ..ServeConfig::default()
            };
            let summary = run_core(run, cfg, &sh, ctrl_rx).unwrap();
            assert!(ctl_rx.recv().unwrap().contains("\"ok\":true"));
            assert!(ctl_rx.recv().unwrap().contains("\"draining\":true"));
            let inbox = sub_rx.recv().unwrap().unwrap();
            let got: Vec<Alert> = inbox.iter().collect(); // ends: the channel closed
            assert_eq!(got.len(), 1, "checkpointed={checkpointed}");
            assert_eq!(got[0].get("ss[0].n"), Some("5"));
            assert_eq!(summary.alerts, 1);
            assert_eq!(summary.checkpoint.is_some(), checkpointed);
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}
