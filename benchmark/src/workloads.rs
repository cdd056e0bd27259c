//! The four workloads. Each drives `saql` as a child process over its
//! public surfaces only — CLI flags, the NDJSON TCP protocol, SAQL text,
//! the metrics page, `/proc/<pid>` — checks what comes back against the
//! oracle, and fills a [`Report`].

use std::collections::BTreeMap;
use std::fs::File;
use std::io::{BufRead, BufReader, Read};
use std::path::{Path, PathBuf};
use std::process::Stdio;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

use crate::alerts::{self, Origin, Seen};
use crate::calib::Calibrator;
use crate::child::{cpu_seconds_of, Proc, TempDir};
use crate::clock::{now_ns, ns_to_ms, ns_to_s};
use crate::gen::{self, ExpectedMatch, Generator, EVENTS_PER_SEC, RULE_QUERIES};
use crate::load::{send, SendLog, Step};
use crate::many;
use crate::stats::{median, quantile, supported_tail};
use crate::wire::{self, all_u64, first_u64, Control, Ingest, IngestAck};

pub const WORKLOADS: [&str; 4] = [
    "serve-flood",
    "serve-paced",
    "serve-manyquery",
    "replay-batch",
];

/// Events per `--seconds` second on the closed-loop workloads: about what
/// the seed commit sustains, so the timed section lasts about `--seconds`
/// there and the stream is the same whatever the speed.
const FLOOD_EVENTS_PER_SEC: u64 = 200_000;
const MANYQUERY_FLOOD_EVENTS_PER_SEC: u64 = 45_000;
/// Events an open-loop connection may have waiting in the server: at the
/// default 4,096 the seed commit sheds during window closes.
const INGEST_BUFFER: &str = "65536";
/// The fixed open-loop rate of `serve-paced`: trace time equals wall time.
pub const PACED_RATE: u64 = EVENTS_PER_SEC;
/// `replay-batch` stores this many events per `--seconds` second and
/// replays them `2/5 × --seconds` times (~2.5 s a replay at the seed commit).
const REPLAY_EVENTS_PER_SEC: u64 = 50_000;
/// Latency limit of `serve-paced`: a rate is sustained when p99 stays under it.
pub const LATENCY_LIMIT_MS: f64 = 250.0;
const LADDER_RATES: [u64; 3] = [25_000, 50_000, 75_000];
const FLOOD_CHUNK: usize = 500;
const PACED_CHUNK: usize = 250;
/// How often a cheap set-up (spawn, listen, register, connect) is repeated
/// for its median.
const SETUP_REPEATS: usize = 5;
const WINDOW_QUERY: &str = "ts-sma";

/// Where things are and what to run.
pub struct Ctx {
    pub saql: PathBuf,
    pub ladder: Option<PathBuf>,
    /// `benchmark/queries`.
    pub queries: PathBuf,
    /// Scratch and result directory (`benchmark/out`).
    pub out: PathBuf,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

/// What one run measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    /// Failed output checks, in words.
    pub problems: Vec<String>,
    /// Reasons the run is invalid rather than slow (generator fell behind).
    pub invalid: Vec<String>,
    /// Every metric measured, end-to-end and per-layer, by name.
    pub values: BTreeMap<String, f64>,
    /// Counts, sample sizes and phase times for the result file.
    pub facts: Vec<(String, String)>,
    /// The ladder table of a traced run, line by line.
    pub ladder: Vec<String>,
}

impl Report {
    pub fn set(&mut self, name: &str, value: f64) {
        self.values.insert(name.to_string(), value);
    }

    fn fact(&mut self, name: &str, value: impl ToString) {
        self.facts.push((name.to_string(), value.to_string()));
    }

    fn fail(&mut self, count: u64, what: &str) {
        if count > 0 {
            self.failed += count;
            self.problems.push(format!("{what}: {count}"));
        }
    }
}

pub fn run(ctx: &Ctx, workload: &str) -> Result<Report, String> {
    let dir = TempDir::create(&ctx.out, workload).map_err(|e| format!("scratch dir: {e}"))?;
    match workload {
        "serve-flood" => serve_flood(ctx, dir.path()),
        "serve-paced" => serve_paced(ctx, dir.path()),
        "serve-manyquery" => serve_manyquery(ctx, dir.path()),
        "replay-batch" => replay_batch(ctx, dir.path()),
        other => Err(format!("unknown workload `{other}` (one of {WORKLOADS:?})")),
    }
}

/// Report the end-to-end timings as they would read at reference machine
/// speed (see [`crate::calib`]); what was measured stays under `raw.<name>`.
/// Set-up is left as measured (a serve set-up is mostly the server's accept
/// poll; correcting the store load of `replay-batch` widened its spread),
/// and so is the throughput of an open loop, which the schedule fixes.
fn correct_to_reference_speed(report: &mut Report, open_loop: bool) {
    let speed = report.values.get("machine.speed").copied().unwrap_or(1.0);
    let throughput = if open_loop { 1.0 } else { 1.0 / speed };
    for (name, factor) in [
        ("throughput_eps", throughput),
        ("cpu_s_per_mev", speed),
        ("alert_latency_p50_ms", speed),
    ] {
        if let Some(raw) = report.values.get(name).copied() {
            report.set(&format!("raw.{name}"), raw);
            report.set(name, raw * factor);
        }
    }
}

// ---------------------------------------------------------------------
// A running server and the harness's connections to it
// ---------------------------------------------------------------------

fn family_files(ctx: &Ctx) -> Result<Vec<PathBuf>, String> {
    let dir = ctx.queries.join("family");
    let mut files: Vec<PathBuf> = std::fs::read_dir(&dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "saql"))
        .collect();
    files.sort();
    if files.len() != 8 {
        return Err(format!(
            "expected the 8 Q-family queries in {}",
            dir.display()
        ));
    }
    Ok(files)
}

fn query_args(files: &[PathBuf]) -> Vec<String> {
    files
        .iter()
        .flat_map(|f| ["--query".to_string(), f.display().to_string()])
        .collect()
}

struct Serve {
    proc: Proc,
    addr: String,
    stdout: PathBuf,
}

fn spawn_serve(ctx: &Ctx, dir: &Path, tag: &str, args: &[String]) -> Result<Serve, String> {
    let stdout = dir.join(format!("serve-{tag}.out"));
    let file = File::create(&stdout).map_err(|e| format!("{}: {e}", stdout.display()))?;
    let mut argv = vec!["serve".to_string(), "--listen".into(), "127.0.0.1:0".into()];
    argv.extend_from_slice(args);
    let mut proc = Proc::spawn(&ctx.saql, &argv, Stdio::from(file))?;
    let addr = proc.wait_listening()?;
    Ok(Serve { proc, addr, stdout })
}

impl Serve {
    /// Ask the server to stop and wait until it has exited cleanly.
    fn shutdown(&mut self, control: &mut Control) -> Result<(), String> {
        control.shutdown()?;
        let status = self.proc.wait_exit(Duration::from_secs(60))?;
        if !status.success() {
            return Err(format!(
                "saql serve exited with {status}; stderr: {:?}",
                self.proc.stderr_seen
            ));
        }
        Ok(())
    }
}

/// A server with everything a serve workload attaches to it.
struct Live {
    serve: Serve,
    /// The tenant the ingest connection (and a poller) belongs to.
    tenant: &'static str,
    /// One control connection per tenant, in tenant order.
    controls: Vec<Control>,
    ingest: Ingest,
    subscribers: Vec<JoinHandle<Vec<Seen>>>,
    register_ms: Vec<f64>,
    gen: Generator,
}

impl Live {
    /// Kill the server and reap the subscriber threads (a repeated set-up
    /// keeps only its last instance).
    fn discard(self) {
        drop(self.ingest);
        drop(self.controls);
        drop(self.serve);
        for handle in self.subscribers {
            let _ = handle.join();
        }
    }
}

/// How a workload attaches to its server.
struct Attach<'a> {
    /// One control connection per tenant. The single ingest connection
    /// belongs to the first and trusts its own order.
    tenants: &'a [&'static str],
    lossless: bool,
    /// Queries to register over the control channel, `(tenant, name, text)`.
    register: &'a [(&'static str, String, String)],
    /// `(tenant, query)` subscriptions.
    subscribe: &'a [(&'a str, &'a str)],
}

fn go_live(
    ctx: &Ctx,
    dir: &Path,
    tag: &str,
    args: &[String],
    attach: &Attach,
) -> Result<Live, String> {
    let serve = spawn_serve(ctx, dir, tag, args)?;
    let mut controls = Vec::new();
    for tenant in attach.tenants {
        controls.push(Control::open(&serve.addr, tenant)?);
    }
    let mut register_ms = Vec::with_capacity(attach.register.len());
    for (tenant, name, text) in attach.register {
        let at = attach
            .tenants
            .iter()
            .position(|t| t == tenant)
            .expect("registered tenant is attached");
        register_ms.push(controls[at].register(name, text)?.as_secs_f64() * 1e3);
    }
    let mut subscribers = Vec::new();
    for (tenant, query) in attach.subscribe {
        subscribers.push(alerts::collect_subscription(wire::subscribe(
            &serve.addr,
            tenant,
            query,
        )?));
    }
    let ingest = Ingest::open(
        &serve.addr,
        attach.tenants[0],
        "bench",
        attach.lossless,
        true,
    )?;
    let gen = Generator::new(ctx.seed);
    Ok(Live {
        serve,
        tenant: attach.tenants[0],
        controls,
        ingest,
        subscribers,
        register_ms,
        gen,
    })
}

/// Set up `SETUP_REPEATS` times, keep the last instance, report the median
/// duration: spawn of the child → listening, queries registered,
/// connections open, generator ready.
fn timed_setup(
    report: &mut Report,
    mut make: impl FnMut(usize) -> Result<Live, String>,
) -> Result<Live, String> {
    let mut times = Vec::new();
    let mut live = None;
    for round in 0..SETUP_REPEATS {
        if let Some(previous) = live.take() {
            Live::discard(previous);
        }
        let began = now_ns();
        live = Some(make(round)?);
        times.push(ns_to_s(now_ns() - began));
    }
    report.set("setup_s", median(&times).expect("at least one set-up"));
    report.fact("setup_samples", times.len());
    Ok(live.expect("at least one set-up"))
}

// ---------------------------------------------------------------------
// Tracing from outside: a poller on the control channel and metrics page
// ---------------------------------------------------------------------

/// Polling alternates between blocks of this length with the poller on and
/// off, so one run yields the work rate with and without it.
const POLL_BLOCK: Duration = Duration::from_secs(2);

#[derive(Debug, Default)]
struct Polled {
    stats_ms: Vec<f64>,
    backlog_max: u64,
    lag_ms_max: u64,
    /// `(time, events sent, server cpu seconds)` at each block boundary.
    marks: Vec<(u64, u64, f64)>,
}

struct Poller {
    stop: Arc<AtomicBool>,
    handle: JoinHandle<Polled>,
}

fn start_poller(
    addr: &str,
    tenant: &str,
    pid: u32,
    progress: Arc<AtomicU64>,
) -> Result<Poller, String> {
    let mut control = Control::open(addr, tenant)?;
    let addr = addr.to_string();
    let stop = Arc::new(AtomicBool::new(false));
    let stopped = Arc::clone(&stop);
    let cpu = move || {
        let (user, sys) = cpu_seconds_of(pid);
        user + sys
    };
    let handle = std::thread::spawn(move || {
        let mut polled = Polled::default();
        let mut block = 0u64;
        let began = now_ns();
        while !stopped.load(Ordering::Relaxed) {
            polled
                .marks
                .push((now_ns(), progress.load(Ordering::Relaxed), cpu()));
            let block_end = began + (block + 1) * POLL_BLOCK.as_nanos() as u64;
            let on = block.is_multiple_of(2);
            while now_ns() < block_end && !stopped.load(Ordering::Relaxed) {
                if on {
                    if let Ok((reply, took)) = control.stats() {
                        polled.stats_ms.push(took.as_secs_f64() * 1e3);
                        let offset = first_u64(&reply, "offset").unwrap_or(0);
                        let sent = progress.load(Ordering::Relaxed);
                        polled.backlog_max = polled.backlog_max.max(sent.saturating_sub(offset));
                        let lag = all_u64(&reply, "lag_ms").into_iter().max().unwrap_or(0);
                        polled.lag_ms_max = polled.lag_ms_max.max(lag);
                    }
                    // the page is part of the load a scraper puts on the
                    // server; its content is read once, at the end of the run
                    let _ = wire::scrape_metrics(&addr);
                }
                let next_poll = (now_ns() + 1_000_000_000).min(block_end);
                while now_ns() < next_poll && !stopped.load(Ordering::Relaxed) {
                    std::thread::sleep(Duration::from_millis(20));
                }
            }
            block += 1;
        }
        polled
            .marks
            .push((now_ns(), progress.load(Ordering::Relaxed), cpu()));
        polled
    });
    Ok(Poller { stop, handle })
}

impl Poller {
    fn finish(self) -> Polled {
        self.stop.store(true, Ordering::Relaxed);
        self.handle.join().unwrap_or_default()
    }
}

/// `1 − work rate with the poller on ÷ work rate with it off`, the work
/// rate being events per second in a closed loop and events per server
/// CPU-second in an open one.
fn overhead_share(marks: &[(u64, u64, f64)], closed_loop: bool) -> f64 {
    let mut on = (0.0, 0.0);
    let mut off = (0.0, 0.0);
    for (block, pair) in marks.windows(2).enumerate() {
        let events = (pair[1].1 - pair[0].1) as f64;
        let cost = if closed_loop {
            ns_to_s(pair[1].0 - pair[0].0)
        } else {
            pair[1].2 - pair[0].2
        };
        let side = if block % 2 == 0 { &mut on } else { &mut off };
        side.0 += events;
        side.1 += cost;
    }
    if on.1 <= 0.0 || off.1 <= 0.0 || off.0 <= 0.0 {
        return 0.0;
    }
    1.0 - (on.0 / on.1) / (off.0 / off.1)
}

// ---------------------------------------------------------------------
// Measuring and checking what came back
// ---------------------------------------------------------------------

/// Server-side accounting read while the child is still alive: the final
/// `stats` reply, CPU time, peak RSS, threads, the metrics page.
fn read_child(
    report: &mut Report,
    live: &mut Live,
    events: u64,
    trace: bool,
) -> Result<(), String> {
    let (stats, _) = live.controls[0].stats()?;
    let dropped = first_u64(&stats, "dropped_alerts").unwrap_or(0);
    report.fail(dropped, "alerts dropped by the server (slow subscriber)");
    let (user, sys) = live.serve.proc.cpu_seconds();
    report.set("cpu_s_per_mev", (user + sys) / (events as f64 / 1e6));
    report.set("peak_rss_mb", live.serve.proc.peak_rss_mb());
    report.set("serve.cpu.user_s", user);
    report.set("serve.cpu.sys_s", sys);
    report.set("serve.threads", live.serve.proc.threads());
    report.set("serve.fanout.dropped", dropped as f64);
    if trace {
        let page = wire::scrape_metrics(&live.serve.addr)?;
        let delivered: f64 = wire::metric_values(&page, "saql_alerts_delivered_total", "")
            .iter()
            .sum();
        report.set("serve.fanout.delivered", delivered);
        let p50s = wire::metric_values(&page, "saql_delivery_latency_us", "stat=\"p50\"");
        report.set("serve.fanout.delivery_us_p50", median(&p50s).unwrap_or(0.0));
    }
    Ok(())
}

fn set_speed(report: &mut Report, calibrator: Calibrator) {
    let (speed, samples) = calibrator.finish();
    report.set("machine.speed", speed);
    report.fact("speed_samples", samples);
}

fn account_ack(report: &mut Report, ack: &IngestAck, sent: u64) {
    report.fail(ack.decode_errors, "decode_errors");
    report.fail(ack.shed_quota, "shed_quota");
    report.fail(ack.shed_buffer, "shed_buffer");
    report.fail(ack.dropped_late, "dropped_late");
    let accounted = ack.events + ack.decode_errors + ack.shed_quota + ack.shed_buffer;
    report.fail(
        sent.saturating_sub(accounted),
        "events sent but never acknowledged",
    );
    report.set("serve.ingest.decode_errors", ack.decode_errors as f64);
    report.set("serve.ingest.shed_quota", ack.shed_quota as f64);
    report.set("serve.ingest.shed_buffer", ack.shed_buffer as f64);
    report.fact("events_acked", ack.events);
}

/// p50 and p99 of one latency sample, with the sample count and the
/// highest percentile that has ten samples beyond it recorded as facts: a
/// p99 over fewer than 1,000 samples is printed but not to be trusted.
fn set_latency(report: &mut Report, prefix: &str, sample_ms: &[f64]) {
    report.fact(&format!("{prefix}_samples"), sample_ms.len());
    let tail = supported_tail(sample_ms.len());
    report.fact(
        &format!("{prefix}_tail_supported"),
        tail.map_or("none".into(), |q| format!("p{}", q * 100.0)),
    );
    if let Some(p50) = median(sample_ms) {
        report.set(&format!("{prefix}_p50_ms"), p50);
    }
    if let Some(p99) = quantile(sample_ms, 0.99) {
        report.set(&format!("{prefix}_p99_ms"), p99);
    }
}

/// Check the subscribers' and the server's own rule alerts against the
/// oracle, and turn the subscribers' receive times into latencies from each
/// alert's last contributing event.
fn check_rule_alerts(
    report: &mut Report,
    expected: &[ExpectedMatch],
    subscribed: &[Seen],
    printed: &[Seen],
    log: &SendLog,
) -> Vec<f64> {
    let by_sub = alerts::check_matches(expected, subscribed);
    report.fail(
        by_sub.missing,
        "expected rule alerts no subscriber received",
    );
    for (want, _) in expected
        .iter()
        .zip(&by_sub.recv_ns)
        .filter(|(_, recv)| recv.is_none())
        .take(3)
    {
        report
            .problems
            .push(format!("  e.g. {} {:?}", want.query, want.event_ids));
    }
    report.fail(
        by_sub.surplus,
        "duplicate or unexpected rule alerts at subscribers",
    );
    let rules: Vec<Seen> = printed
        .iter()
        .filter(|a| RULE_QUERIES.contains(&a.query.as_str()))
        .cloned()
        .collect();
    let by_print = alerts::check_matches(expected, &rules);
    report.fail(
        by_print.missing,
        "expected rule alerts the server never printed",
    );
    report.fail(
        by_print.surplus,
        "duplicate or unexpected rule alerts printed",
    );
    report.fact("rule_alerts_expected", expected.len());
    expected
        .iter()
        .zip(&by_sub.recv_ns)
        .map(|(want, recv)| {
            let last = want.event_ids.iter().max().expect("an attack has events") - 1;
            match recv {
                Some(recv) => ns_to_ms(recv.saturating_sub(log.due_of(last))),
                None => f64::INFINITY,
            }
        })
        .collect()
}

/// Latencies of window alerts whose window closed inside the stream: from
/// when the first event at or past the window's end was due.
fn window_latencies(subscribed: &[Seen], log: &SendLog, sent: u64) -> Vec<f64> {
    let last_ts = gen::ts_of_index(sent - 1);
    subscribed
        .iter()
        .filter(|a| a.query == WINDOW_QUERY)
        .filter_map(|a| match a.origin {
            Origin::Window { end_ms } if end_ms <= last_ts => Some(ns_to_ms(
                a.recv_ns
                    .saturating_sub(log.due_of(gen::first_index_at(end_ms))),
            )),
            _ => None,
        })
        .collect()
}

fn generator_metrics(report: &mut Report, log: &SendLog, open_loop: bool) {
    let late = quantile(&log.late_ms(), 0.99).unwrap_or(0.0);
    report.set("gen.busy_share", log.busy_share());
    report.set("gen.late_ms_p99", late);
    report.set("gen.bytes", log.bytes as f64);
    if open_loop {
        if log.busy_share() > 0.5 {
            report
                .invalid
                .push(format!("gen.busy_share {:.2} > 0.5", log.busy_share()));
        }
        if late > 20.0 {
            report
                .invalid
                .push(format!("gen.late_ms_p99 {late:.1} > 20"));
        }
    }
}

fn poller_metrics(report: &mut Report, polled: &Polled, closed_loop: bool) {
    report.set(
        "serve.control.stats_ms_p50",
        median(&polled.stats_ms).unwrap_or(0.0),
    );
    report.set("serve.ingest.backlog_max_ev", polled.backlog_max as f64);
    report.set("serve.source.lag_ms_max", polled.lag_ms_max as f64);
    report.set(
        "trace.overhead_share",
        overhead_share(&polled.marks, closed_loop),
    );
    report.fact("polls", polled.stats_ms.len());
}

const FAMILY_SUBSCRIPTIONS: [(&str, &str); 4] = [
    ("default", "rule-1step"),
    ("default", "rule-2step"),
    ("default", "rule-4step"),
    ("default", WINDOW_QUERY),
];

fn join_subscribers(handles: Vec<JoinHandle<Vec<Seen>>>) -> Vec<Seen> {
    handles
        .into_iter()
        .flat_map(|h| h.join().unwrap_or_default())
        .collect()
}

// ---------------------------------------------------------------------
// serve-flood and serve-manyquery: closed loop
// ---------------------------------------------------------------------

/// The timed section of every serve workload: send `steps` (as fast as
/// the connection takes them, or on a schedule) beside the calibrator and,
/// traced, the poller; time first byte → drained ack; read the child while
/// it is still alive.
fn timed_section(
    ctx: &Ctx,
    report: &mut Report,
    live: &mut Live,
    steps: &[Step],
) -> Result<(SendLog, IngestAck, Option<Polled>), String> {
    let events: u64 = steps.iter().map(|s| s.events).sum();
    let chunk = if steps[0].rate.is_some() {
        PACED_CHUNK
    } else {
        FLOOD_CHUNK
    };
    let progress = Arc::new(AtomicU64::new(0));
    let poller = if ctx.trace {
        let pid = live.serve.proc.pid();
        Some(start_poller(
            &live.serve.addr,
            live.tenant,
            pid,
            Arc::clone(&progress),
        )?)
    } else {
        None
    };
    let calibrator = Calibrator::start();
    let log = send(&mut live.gen, &mut live.ingest, steps, chunk, &progress)?;
    let ack = live.ingest.finish()?;
    let drained_ns = now_ns();
    set_speed(report, calibrator);
    let polled = poller.map(Poller::finish);
    let wall_s = ns_to_s(drained_ns - log.first_byte_ns);
    report.attempted = events;
    account_ack(report, &ack, events);
    report.set("throughput_eps", ack.events as f64 / wall_s);
    report.set("harness.wall_ns_per_ev", wall_s * 1e9 / events as f64);
    report.fact("timed_wall_s", wall_s);
    report.fact("events_sent", events);
    read_child(report, live, events, ctx.trace)?;
    Ok((log, ack, polled))
}

/// After the server has stopped: check its rule alerts against the oracle,
/// fill in the latencies and the generator's and poller's metrics, correct
/// to reference speed. Returns the alerts the server printed and the
/// latency of each expected rule alert.
fn after_serving(
    report: &mut Report,
    live: &mut Live,
    log: &SendLog,
    polled: Option<Polled>,
) -> (Vec<Seen>, Vec<f64>) {
    let open_loop = log.open_loop;
    let subscribed = join_subscribers(std::mem::take(&mut live.subscribers));
    let printed = alerts::read_text_file(&live.serve.stdout);
    let alert_ms = check_rule_alerts(report, live.gen.matches(), &subscribed, &printed, log);
    set_latency(report, "alert_latency", &alert_ms);
    set_latency(
        report,
        "window_latency",
        &window_latencies(&subscribed, log, log.events),
    );
    generator_metrics(report, log, open_loop);
    if let Some(polled) = polled {
        poller_metrics(report, &polled, !open_loop);
    }
    correct_to_reference_speed(report, open_loop);
    (printed, alert_ms)
}

/// The body of the in-memory serve workloads: the timed section, a clean
/// stop, the checks.
fn drive(ctx: &Ctx, report: &mut Report, mut live: Live, step: Step) -> Result<(), String> {
    let (log, _, polled) = timed_section(ctx, report, &mut live, &[step])?;
    let began = now_ns();
    let mut control = live.controls.remove(0);
    live.serve.shutdown(&mut control)?;
    report.fact("shutdown_s", ns_to_s(now_ns() - began));
    after_serving(report, &mut live, &log, polled);
    Ok(())
}

fn serve_flood(ctx: &Ctx, dir: &Path) -> Result<Report, String> {
    let mut report = Report::default();
    let args = query_args(&family_files(ctx)?);
    let attach = Attach {
        tenants: &["default"],
        lossless: true,
        register: &[],
        subscribe: &FAMILY_SUBSCRIPTIONS,
    };
    let live = timed_setup(&mut report, |round| {
        go_live(ctx, dir, &round.to_string(), &args, &attach)
    })?;
    let flood = Step {
        rate: None,
        events: ctx.seconds * FLOOD_EVENTS_PER_SEC,
    };
    drive(ctx, &mut report, live, flood)?;
    Ok(report)
}

fn serve_manyquery(ctx: &Ctx, dir: &Path) -> Result<Report, String> {
    let mut report = Report::default();
    // Q-many, plus the three rule queries under the first tenant: their
    // alerts are the oracle check and the latency sample of this workload.
    let mut register = many::render(ctx.seed);
    for file in family_files(ctx)? {
        let name = alerts::bare_query_name(&file.display().to_string()).to_string();
        if RULE_QUERIES.contains(&name.as_str()) {
            let text =
                std::fs::read_to_string(&file).map_err(|e| format!("{}: {e}", file.display()))?;
            register.push((many::TENANTS[0], name, text));
        }
    }
    let subscribe: Vec<(&str, &str)> = RULE_QUERIES
        .iter()
        .map(|q| (many::TENANTS[0], *q))
        .collect();
    // Untraced, the stream arrives on a schedule: flat out, this server's
    // throughput flips between two levels a quarter apart at the same CPU
    // cost per event (its threads share one core or spread over two), so it
    // is the cost, not the rate, that is measured. The traced run floods,
    // and reports the capacity as `raw.throughput_eps`.
    let step = if ctx.trace {
        Step {
            rate: None,
            events: ctx.seconds * MANYQUERY_FLOOD_EVENTS_PER_SEC,
        }
    } else {
        Step {
            rate: Some(PACED_RATE),
            events: ctx.seconds * PACED_RATE,
        }
    };
    let attach = Attach {
        tenants: &many::TENANTS,
        lossless: ctx.trace,
        register: &register,
        subscribe: &subscribe,
    };
    let args = [
        "--max-queries".to_string(),
        "512".into(),
        "--ingest-buffer".into(),
        INGEST_BUFFER.into(),
    ];
    let live = timed_setup(&mut report, |round| {
        go_live(ctx, dir, &round.to_string(), &args, &attach)
    })?;
    report.set(
        "serve.control.register_ms_p50",
        median(&live.register_ms).unwrap_or(0.0),
    );
    report.fact("queries_registered", live.register_ms.len());
    drive(ctx, &mut report, live, step)?;
    Ok(report)
}

// ---------------------------------------------------------------------
// serve-paced: open loop, durable, restart
// ---------------------------------------------------------------------

/// The durable configuration of `serve-paced`. Two settings depart from
/// the defaults, both because the seed commit sheds events otherwise (see
/// README, "What the seed commit taught the workloads"): the checkpoint
/// cadence is one second of traffic instead of 4,096 events, and the ingest
/// buffer is [`INGEST_BUFFER`].
fn durable_args(dir: &Path) -> Vec<String> {
    vec![
        "--store".to_string(),
        dir.join("store").display().to_string(),
        "--checkpoint-dir".into(),
        dir.join("ckpt").display().to_string(),
        "--checkpoint-every".into(),
        PACED_RATE.to_string(),
        "--ingest-buffer".into(),
        INGEST_BUFFER.into(),
    ]
}

fn serve_paced(ctx: &Ctx, dir: &Path) -> Result<Report, String> {
    let mut report = Report::default();
    let files = family_files(ctx)?;
    let attach = Attach {
        tenants: &["default"],
        lossless: false,
        register: &[],
        subscribe: &FAMILY_SUBSCRIPTIONS,
    };
    // Each set-up gets a fresh store and checkpoint directory.
    let mut live = timed_setup(&mut report, |round| {
        let dir = dir.join(format!("durable-{round}"));
        let mut args = query_args(&files);
        args.extend(durable_args(&dir));
        go_live(ctx, &dir_created(&dir)?, "live", &args, &attach)
    })?;
    let durable_dir = dir.join(format!("durable-{}", SETUP_REPEATS - 1));

    // Untraced: the fixed rate for the whole run. Traced: the rate ladder.
    let steps: Vec<Step> = if ctx.trace {
        let step_s = (ctx.seconds / 2).max(4);
        LADDER_RATES
            .iter()
            .map(|&rate| Step {
                rate: Some(rate),
                events: rate * step_s,
            })
            .collect()
    } else {
        vec![Step {
            rate: Some(PACED_RATE),
            events: PACED_RATE * ctx.seconds,
        }]
    };
    let events: u64 = steps.iter().map(|s| s.events).sum();
    let (log, ack, polled) = timed_section(ctx, &mut report, &mut live, &steps)?;
    if !ack.durable {
        report.fail(1, "ingest summary did not acknowledge durability");
    }

    // Restart: `shutdown` sent → final checkpoint, seal, exit → `--resume`
    // listening with the offset it acknowledged.
    let began = now_ns();
    let mut control = live.controls.remove(0);
    live.serve.shutdown(&mut control)?;
    let stopped_ns = now_ns();
    let mut resume_args = durable_args(&durable_dir);
    resume_args.push("--resume".into());
    let mut resumed = spawn_serve(ctx, &durable_dir, "resumed", &resume_args)?;
    let mut control = Control::open(&resumed.addr, "default")?;
    let (stats, _) = control.stats()?;
    let restart_s = ns_to_s(now_ns() - began);
    report.set("serve.restart_s", restart_s);
    report.fact("restart_stop_s", ns_to_s(stopped_ns - began));
    let offset = first_u64(&stats, "offset").unwrap_or(0);
    let durable_events = first_u64(&stats, "durable_events").unwrap_or(0);
    if durable_events != ack.events {
        report.fail(
            ack.events.abs_diff(durable_events),
            "acknowledged events missing from the resumed store",
        );
    }
    // The engine offset also counts the pipeline's derived events.
    if offset < ack.events {
        report.fail(
            ack.events - offset,
            "resumed engine offset behind the acknowledged count",
        );
    }
    report.fact("resumed_offset", offset);
    resumed.shutdown(&mut control)?;

    let (printed, alert_ms) = after_serving(&mut report, &mut live, &log, polled);

    // serve ≡ offline: replaying the store the server wrote must print the
    // same alerts, for every rule match and every window that closed
    // before the last event.
    let replayed = replay_once(ctx, &durable_dir.join("store"), &files)?;
    let last_ts = gen::ts_of_index(events - 1);
    let closed = |a: &&Seen| match a.origin {
        Origin::Match { .. } => true,
        Origin::Window { end_ms } => end_ms <= last_ts,
    };
    let served: Vec<&str> = printed
        .iter()
        .filter(closed)
        .map(|a| a.text.as_str())
        .collect();
    let offline: Vec<&str> = replayed
        .alerts
        .iter()
        .filter(closed)
        .map(|a| a.text.as_str())
        .collect();
    let (differing, lines) = alerts::multiset_difference(&served, &offline);
    if differing > 0 {
        report.fail(
            differing,
            "alerts differing between serve and replay of its store",
        );
        report.problems.extend(lines.into_iter().take(5));
    }
    report.fact("alerts_compared_with_replay", served.len());

    if ctx.trace {
        // One latency sample per ladder step, by the step the alert's last
        // event was sent in.
        let mut max_ok = 0u64;
        let mut sustained = true;
        for (s, rate) in LADDER_RATES.iter().enumerate() {
            let first = log.step_starts[s] as u64 * log.chunk;
            let end = log
                .step_starts
                .get(s + 1)
                .map_or(events, |c| *c as u64 * log.chunk);
            let sample: Vec<f64> = live
                .gen
                .matches()
                .iter()
                .zip(&alert_ms)
                .filter(|(m, _)| {
                    (first..end).contains(&(m.event_ids.iter().max().expect("events") - 1))
                })
                .map(|(_, ms)| *ms)
                .collect();
            let p99 = quantile(&sample, 0.99).unwrap_or(f64::INFINITY);
            report.set(&format!("serve.ladder.p99_ms.r{}k", rate / 1000), p99);
            report.fact(&format!("ladder_r{}k_samples", rate / 1000), sample.len());
            // sustained: this rate and every lower one met the limit
            if p99 <= LATENCY_LIMIT_MS && sustained {
                max_ok = *rate;
            } else {
                sustained = false;
            }
        }
        report.set("serve.ladder.max_rate_ok", max_ok as f64);
    }
    Ok(report)
}

fn dir_created(dir: &Path) -> Result<PathBuf, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(dir.to_path_buf())
}

// ---------------------------------------------------------------------
// replay-batch: the store read back through the offline engine
// ---------------------------------------------------------------------

struct Replayed {
    alerts: Vec<Seen>,
    spawned_ns: u64,
    wall_s: f64,
    cpu_s: (f64, f64),
    peak_rss_mb: f64,
    events: u64,
}

/// `saql replay --source store:DIR --query family/*`, spawn → exit, every
/// printed alert stamped as it is read.
fn replay_once(ctx: &Ctx, store: &Path, queries: &[PathBuf]) -> Result<Replayed, String> {
    let mut argv = vec![
        "replay".to_string(),
        "--source".into(),
        format!("store:{}", store.display()),
    ];
    argv.extend(query_args(queries));
    let spawned_ns = now_ns();
    let mut proc = Proc::spawn(&ctx.saql, &argv, Stdio::piped())?;
    let stdout = proc.take_stdout().expect("stdout was piped");
    let mut alerts = Vec::new();
    let mut events = 0;
    let mut peak_rss_mb: f64 = 0.0;
    let mut sampled_ns = 0;
    for line in BufReader::new(stdout).lines() {
        let line = line.map_err(|e| format!("replay stdout: {e}"))?;
        let now = now_ns();
        if let Some(alert) = alerts::parse_text(&line, now) {
            alerts.push(alert);
        } else if let Some((_, count)) = line
            .trim_start()
            .strip_prefix("src#")
            .and_then(|l| l.split_once(" store:"))
        {
            // `  src#0 store:DIR: 750000 events`
            events = count
                .rsplit(' ')
                .nth(1)
                .and_then(|v| v.parse().ok())
                .unwrap_or(0);
        }
        // VmHWM vanishes with the process; it only grows, so the last
        // reading before exit stands for the peak.
        if now - sampled_ns > 20_000_000 {
            sampled_ns = now;
            peak_rss_mb = peak_rss_mb.max(proc.peak_rss_mb());
        }
    }
    // stdout closed: the child is exiting; its CPU times stay readable
    // until it is reaped.
    let cpu_s = proc.cpu_seconds();
    let status = proc.wait_exit(Duration::from_secs(60))?;
    let wall_s = ns_to_s(now_ns() - spawned_ns);
    if !status.success() {
        return Err(format!(
            "saql replay exited with {status}; stderr: {:?}",
            proc.stderr_seen
        ));
    }
    Ok(Replayed {
        alerts,
        spawned_ns,
        wall_s,
        cpu_s,
        peak_rss_mb,
        events,
    })
}

fn replay_batch(ctx: &Ctx, dir: &Path) -> Result<Report, String> {
    let mut report = Report::default();
    let files = family_files(ctx)?;
    let events = ctx.seconds * REPLAY_EVENTS_PER_SEC;

    // Set-up: load the generated stream into a segmented store through a
    // throwaway durable server.
    let began = now_ns();
    let store = dir.join("store");
    let attach = Attach {
        tenants: &["default"],
        lossless: true,
        register: &[],
        subscribe: &[],
    };
    let args = [
        "--store".to_string(),
        store.display().to_string(),
        "--quiet".into(),
    ];
    let mut live = go_live(ctx, dir, "loader", &args, &attach)?;
    let progress = AtomicU64::new(0);
    let log = send(
        &mut live.gen,
        &mut live.ingest,
        &[Step { rate: None, events }],
        FLOOD_CHUNK,
        &progress,
    )?;
    let ack = live.ingest.finish()?;
    if ack.events != events || !ack.durable {
        return Err(format!(
            "store load acknowledged {} of {events} events (durable: {})",
            ack.events, ack.durable
        ));
    }
    let mut control = live.controls.remove(0);
    live.serve.shutdown(&mut control)?;
    report.set("setup_s", ns_to_s(now_ns() - began));
    report.fact("store_events", events);
    generator_metrics(&mut report, &log, false);

    // Timed: consecutive replays of the same store, the median of each metric.
    let reps = (ctx.seconds * 2 / 5).max(3) as usize;
    let expected = live.gen.matches();
    let last_ts = gen::ts_of_index(events - 1);
    let mut runs = Vec::new();
    let mut first_texts: Option<Vec<String>> = None;
    let calibrator = Calibrator::start();
    for rep in 0..reps {
        let run = replay_once(ctx, &store, &files)?;
        report.attempted += events;
        report.fail(
            events.abs_diff(run.events),
            "events replayed differ from events stored",
        );
        let check = alerts::check_matches(expected, &run.alerts);
        report.fail(
            check.missing,
            "expected rule alerts the replay never printed",
        );
        report.fail(check.surplus, "duplicate or unexpected rule alerts printed");
        let mut texts: Vec<String> = run.alerts.iter().map(|a| a.text.clone()).collect();
        texts.sort_unstable();
        match &first_texts {
            None => first_texts = Some(texts),
            Some(first) if *first != texts => report.fail(
                1,
                &format!("replay {rep} printed different alerts than replay 0"),
            ),
            Some(_) => {}
        }
        runs.push(run);
    }
    set_speed(&mut report, calibrator);
    let med = |f: &dyn Fn(&Replayed) -> f64| {
        median(&runs.iter().map(f).collect::<Vec<_>>()).expect("at least one replay")
    };
    report.set("throughput_eps", med(&|r| events as f64 / r.wall_s));
    report.set(
        "harness.wall_ns_per_ev",
        med(&|r| r.wall_s * 1e9 / events as f64),
    );
    report.set(
        "cpu_s_per_mev",
        med(&|r| (r.cpu_s.0 + r.cpu_s.1) / (events as f64 / 1e6)),
    );
    report.set("peak_rss_mb", med(&|r| r.peak_rss_mb));
    report.set("serve.cpu.user_s", med(&|r| r.cpu_s.0));
    report.set("serve.cpu.sys_s", med(&|r| r.cpu_s.1));
    // A batch job's latency is the wait from launch to each result: the
    // whole store is the program's input from the moment it starts.
    let since_spawn = |r: &Replayed, rules: bool| -> Vec<f64> {
        r.alerts
            .iter()
            .filter(|a| match a.origin {
                Origin::Match { .. } => rules,
                Origin::Window { end_ms } => !rules && a.query == WINDOW_QUERY && end_ms <= last_ts,
            })
            .map(|a| ns_to_ms(a.recv_ns - r.spawned_ns))
            .collect()
    };
    for (prefix, rules) in [("alert_latency", true), ("window_latency", false)] {
        report.set(
            &format!("{prefix}_p50_ms"),
            med(&|r| median(&since_spawn(r, rules)).unwrap_or(f64::INFINITY)),
        );
        report.set(
            &format!("{prefix}_p99_ms"),
            med(&|r| quantile(&since_spawn(r, rules), 0.99).unwrap_or(f64::INFINITY)),
        );
        report.fact(
            &format!("{prefix}_samples"),
            since_spawn(&runs[0], rules).len(),
        );
    }
    report.fact("replays", reps);
    report.fact(
        "replay_wall_s",
        runs.iter()
            .map(|r| format!("{:.3}", r.wall_s))
            .collect::<Vec<_>>()
            .join(" "),
    );
    report.fact("rule_alerts_expected", expected.len());
    correct_to_reference_speed(&mut report, false);
    Ok(report)
}

// ---------------------------------------------------------------------
// The in-process ladder (traced runs only)
// ---------------------------------------------------------------------

/// Events the in-process ladder pushes through each layer.
const LADDER_EVENTS: u64 = 250_000;

/// The ladder layers on each workload's blocking path; what is left of the
/// workload's wall time per event after them is `serve.ingest.unattributed_ns`.
fn path_layers(workload: &str) -> &'static [&'static str] {
    match workload {
        "serve-flood" => &[
            "model.json.decode_ns",
            "stream.merge.k1_ns",
            "stream.batch.build_ns",
            "engine.scheduler.family_serve_ns",
        ],
        "serve-paced" => &[
            "model.json.decode_ns",
            "stream.merge.k1_ns",
            "stream.batch.build_ns",
            "stream.durable.append_sync_ns",
            "engine.scheduler.family_serve_ns",
        ],
        "serve-manyquery" => &[
            "model.json.decode_ns",
            "stream.merge.k1_ns",
            "stream.batch.build_ns",
            "engine.scheduler.many_ns",
        ],
        _ => &[
            "stream.durable.read_ns",
            "stream.merge.k1_ns",
            "stream.batch.build_ns",
            "engine.scheduler.family_ns",
        ],
    }
}

/// Run the separate `saql-ladder` binary — the only code of the benchmark
/// that links repo crates — on the seed's stream, take its per-layer
/// numbers, and print the ladder: the layers on this workload's path and
/// the remainder of its wall time per event.
pub fn run_ladder(ctx: &Ctx, workload: &str, report: &mut Report) -> Result<(), String> {
    let bin = ctx.ladder.as_ref().ok_or("--trace 1 needs --ladder BIN")?;
    let spans = ctx.out.join(format!("trace-{workload}.jsonl"));
    let argv: Vec<String> = [
        ("--seed", ctx.seed.to_string()),
        ("--events", LADDER_EVENTS.to_string()),
        ("--queries", ctx.queries.display().to_string()),
        ("--spans", spans.display().to_string()),
        ("--scratch", ctx.out.display().to_string()),
    ]
    .into_iter()
    .flat_map(|(flag, value)| [flag.to_string(), value])
    .collect();
    let mut proc = Proc::spawn(bin, &argv, Stdio::piped())?;
    let mut stdout = String::new();
    proc.take_stdout()
        .expect("stdout was piped")
        .read_to_string(&mut stdout)
        .map_err(|e| format!("saql-ladder stdout: {e}"))?;
    let status = proc.wait_exit(Duration::from_secs(120))?;
    if !status.success() {
        return Err(format!("saql-ladder failed: {:?}", proc.stderr_seen));
    }
    for line in stdout.lines() {
        let mut parts = line.split_whitespace();
        if let (Some("metric"), Some(name), Some(value)) =
            (parts.next(), parts.next(), parts.next())
        {
            report.set(
                name,
                value
                    .parse()
                    .map_err(|_| format!("bad ladder line `{line}`"))?,
            );
        }
    }
    let wall_ns = report
        .values
        .get("harness.wall_ns_per_ev")
        .copied()
        .unwrap_or(0.0);
    let mut rest = wall_ns;
    report.ladder.push(format!(
        "-- the ladder: {workload}, ns per event ({LADDER_EVENTS} events in process; wall from this traced run)"
    ));
    for layer in path_layers(workload) {
        let ns = report.values.get(*layer).copied().unwrap_or(0.0);
        report.ladder.push(format!("{layer:<48} {ns:>16.1}"));
        rest -= ns;
    }
    report.ladder.push(format!(
        "{:<48} {rest:>16.1}",
        "serve.ingest.unattributed_ns"
    ));
    report
        .ladder
        .push(format!("{:<48} {wall_ns:>16.1}", "= wall per event"));
    report.set("serve.ingest.unattributed_ns", rest);
    Ok(())
}
