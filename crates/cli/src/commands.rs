//! CLI subcommand implementations.

use std::io::{BufRead, Read, Write};
use std::path::{Path, PathBuf};

use saql_collector::{AttackConfig, SimConfig, Simulator, TraceSource};
use saql_engine::{
    CheckpointConfig, Deployment, DurableLog, Engine, EngineConfig, RunSession, SessionStatus,
};
use saql_lang::corpus;
use saql_model::{Duration, Timestamp};
use saql_stream::replayer::{Replayer, Speed};
use saql_stream::source::{ChannelSource, EventSource, StoreSource};
use saql_stream::store::Selection;
use saql_stream::{MergeConfig, StoreReader, StoreWriter};

use crate::args::Flags;

/// The one store-opening surface for reads: every command that consumes a
/// store — `--source store:DIR`, `replay --store DIR`, `export --store DIR`,
/// `repl --store DIR` — opens its segment directory here.
fn open_reader(path: &str) -> Result<StoreReader, String> {
    StoreReader::open(path).map_err(|e| format!("cannot open store {path}: {e}"))
}

/// A file's stem: the name a multi-stage file deploys under.
fn stem(file: &str) -> &str {
    Path::new(file)
        .file_stem()
        .and_then(|s| s.to_str())
        .unwrap_or(file)
}

/// The paper's eight demo queries as `(name, text)` deployment entries.
fn demo_queries() -> Vec<(String, String)> {
    corpus::DEMO_QUERIES
        .iter()
        .map(|(name, text)| (name.to_string(), text.to_string()))
        .collect()
}

/// The run flags `replay` and `serve` share, read into one [`Deployment`]:
/// `--workers`, `--lateness`, `--demo-queries`, `--query FILE`...,
/// `--checkpoint-dir`, `--checkpoint-every` and `--resume`. A multi-stage
/// query file deploys under its stem, so stage names carry no temp paths;
/// a single-stage one under its stem with `by_stem` (serve), else under
/// its path (replay) — alert lines and subscriptions carry the name.
fn deployment(flags: &Flags, by_stem: bool) -> Result<Deployment, String> {
    let mut queries = if flags.switch("demo-queries") {
        demo_queries()
    } else {
        Vec::new()
    };
    for file in flags.get_all("query") {
        let text = std::fs::read_to_string(file).map_err(|e| format!("cannot read {file}: {e}"))?;
        let name = if by_stem || text.contains("|>") {
            stem(file)
        } else {
            file
        };
        queries.push((name.to_string(), text));
    }
    let every_events = flags.get_u64("checkpoint-every", 4096)?;
    let checkpoints = flags.get("checkpoint-dir").map(|dir| CheckpointConfig {
        dir: PathBuf::from(dir),
        every_events,
    });
    let resume = flags.switch("resume");
    if resume && checkpoints.is_none() {
        return Err("--resume requires --checkpoint-dir DIR".into());
    }
    Ok(Deployment {
        engine: EngineConfig {
            workers: flags.get_usize("workers", 0)?,
            ..EngineConfig::default()
        },
        merge: MergeConfig {
            lateness: Duration::from_millis(flags.get_u64("lateness", 1_000)?),
            ..MergeConfig::default()
        },
        queries,
        checkpoints,
        resume,
    })
}

/// One staged control-plane operation on the live engine.
#[derive(Debug)]
enum StagedOp {
    Register { name: String, path: String },
    Deregister { name: String },
    Pause { name: String },
    Resume { name: String },
}

/// Staged query-lifecycle operations parsed from the repeatable
/// `--register-at N:NAME=FILE`, `--deregister-at N:NAME`,
/// `--pause-at N:NAME`, and `--resume-at N:NAME` flags. An operation at
/// position `N` applies once `N` events have been processed (so `0` is
/// before the first event); ties apply registrations first, then
/// deregistrations, pauses, and resumes.
#[derive(Debug, Default)]
pub struct Schedule {
    ops: Vec<(u64, StagedOp)>,
    next: usize,
}

impl Schedule {
    pub fn parse(flags: &Flags) -> Result<Schedule, String> {
        let mut ops: Vec<(u64, StagedOp)> = Vec::new();
        for spec in flags.get_all("register-at") {
            let (at, rest) = split_position("register-at", spec)?;
            let Some((name, path)) = rest.split_once('=') else {
                return Err(format!("--register-at expects N:NAME=FILE, got `{spec}`"));
            };
            ops.push((
                at,
                StagedOp::Register {
                    name: name.to_string(),
                    path: path.to_string(),
                },
            ));
        }
        type OpCtor = fn(String) -> StagedOp;
        let ctors: [(&str, OpCtor); 3] = [
            ("deregister-at", |name| StagedOp::Deregister { name }),
            ("pause-at", |name| StagedOp::Pause { name }),
            ("resume-at", |name| StagedOp::Resume { name }),
        ];
        for (flag, make) in ctors {
            for spec in flags.get_all(flag) {
                let (at, name) = split_position(flag, spec)?;
                ops.push((at, make(name.to_string())));
            }
        }
        // Stable: ties keep the register → deregister → pause → resume
        // insertion order from above.
        ops.sort_by_key(|(at, _)| *at);
        Ok(Schedule { ops, next: 0 })
    }

    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Stream position of the next pending operation, if any — lets the
    /// session pump bound its batch so operations land at exact positions.
    pub fn next_position(&self) -> Option<u64> {
        self.ops.get(self.next).map(|(at, _)| *at)
    }

    /// Apply every operation due once `processed` events have gone through
    /// the engine. Alerts flushed by a deregistration surface through the
    /// normal `engine.process`/`engine.finish` returns.
    pub fn apply_due(&mut self, processed: u64, engine: &mut Engine) -> Result<(), String> {
        while self
            .ops
            .get(self.next)
            .is_some_and(|(at, _)| *at <= processed)
        {
            let (at, op) = &self.ops[self.next];
            self.next += 1;
            match op {
                StagedOp::Register { name, path } => {
                    let src = std::fs::read_to_string(path)
                        .map_err(|e| format!("--register-at {name}: cannot read {path}: {e}"))?;
                    match saql_engine::register_pipeline(engine, name, &src) {
                        Ok(stages) if stages.len() == 1 => println!(
                            "[control +{at}] registered `{name}` as {} ({} group(s) now)",
                            stages[0].1,
                            engine.group_count()
                        ),
                        Ok(stages) => println!(
                            "[control +{at}] registered pipeline `{name}` \
                             ({} stages, {} group(s) now)",
                            stages.len(),
                            engine.group_count()
                        ),
                        Err(e) => return Err(format!("--register-at {name}:\n{}", e.render(&src))),
                    }
                }
                StagedOp::Deregister { name } => {
                    let id = live_id(engine, "deregister-at", name)?;
                    let removed = saql_engine::deregister_pipeline(engine, id)
                        .map_err(|e| format!("--deregister-at {name}: {e}"))?;
                    println!(
                        "[control +{at}] deregistered `{}` ({id}); open windows flushed",
                        removed.join("`, `")
                    );
                }
                StagedOp::Pause { name } => {
                    let id = live_id(engine, "pause-at", name)?;
                    engine
                        .pause(id)
                        .map_err(|e| format!("--pause-at {name}: {e}"))?;
                    println!("[control +{at}] paused `{name}` ({id})");
                }
                StagedOp::Resume { name } => {
                    let id = live_id(engine, "resume-at", name)?;
                    engine
                        .resume(id)
                        .map_err(|e| format!("--resume-at {name}: {e}"))?;
                    println!("[control +{at}] resumed `{name}` ({id})");
                }
            }
        }
        Ok(())
    }
}

fn split_position<'a>(flag: &str, spec: &'a str) -> Result<(u64, &'a str), String> {
    let Some((at, rest)) = spec.split_once(':') else {
        return Err(format!("--{flag} expects N:..., got `{spec}`"));
    };
    let at = at
        .parse()
        .map_err(|_| format!("--{flag} expects a numeric event position, got `{at}`"))?;
    Ok((at, rest))
}

fn live_id(engine: &Engine, flag: &str, name: &str) -> Result<saql_engine::QueryId, String> {
    engine.find(name).ok_or_else(|| {
        format!(
            "--{flag}: no live query `{name}` (deployed: {})",
            engine.query_names().join(", ")
        )
    })
}

/// The CLI's simulator defaults — shared by `demo`/`simulate` flags and
/// the `--source sim:` spec so the two entry points cannot drift.
fn default_sim_config() -> SimConfig {
    SimConfig {
        seed: 2020,
        clients: 8,
        duration_ms: 60 * 60_000,
        attack: Some(AttackConfig::default()),
    }
}

fn sim_config(flags: &Flags) -> Result<SimConfig, String> {
    let defaults = default_sim_config();
    Ok(SimConfig {
        seed: flags.get_u64("seed", defaults.seed)?,
        clients: flags.get_usize("clients", defaults.clients)?.max(3),
        duration_ms: flags.get_u64("minutes", defaults.duration_ms / 60_000)? * 60_000,
        attack: if flags.switch("no-attack") {
            None
        } else {
            defaults.attack
        },
    })
}

/// Host/time selection shared by `replay` and `export`.
fn selection_from_flags(flags: &Flags) -> Result<Selection, String> {
    let mut selection = Selection::all();
    selection.hosts = flags
        .get_all("host")
        .into_iter()
        .map(String::from)
        .collect();
    if let Some(from) = flags.get("from") {
        match from.parse() {
            Ok(ms) => selection.from = Some(Timestamp::from_millis(ms)),
            Err(_) => return Err("--from expects milliseconds".into()),
        }
    }
    if let Some(until) = flags.get("until") {
        match until.parse() {
            Ok(ms) => selection.until = Some(Timestamp::from_millis(ms)),
            Err(_) => return Err("--until expects milliseconds".into()),
        }
    }
    Ok(selection)
}

fn speed_from_flags(flags: &Flags) -> Result<Speed, String> {
    match flags.get("speed") {
        None | Some("max") => Ok(Speed::Unlimited),
        Some(v) => match v.parse::<f64>() {
            Ok(f) if f > 0.0 => Ok(Speed::Compressed { factor: f }),
            _ => Err("--speed expects a positive factor or `max`".into()),
        },
    }
}

/// Build one event source from a `--source` spec:
///
/// * `store:DIR` — stream a stored selection (with `--follow`, replay it
///   paced through the replayer at `--speed` instead);
/// * `jsonl:FILE` / `jsonl:-` — read JSON-lines events from a file/stdin,
///   decoded off the session thread by the NDJSON ingest stage;
/// * `sim:KEY=VAL,...` — generate a deterministic trace live
///   (`seed=`, `clients=`, `minutes=`, `no-attack`).
fn source_from_spec(
    spec: &str,
    selection: &Selection,
    follow: bool,
    speed: Speed,
) -> Result<Box<dyn EventSource>, String> {
    let Some((kind, rest)) = spec.split_once(':') else {
        return Err(format!(
            "--source expects KIND:..., got `{spec}` (kinds: store, jsonl, sim)"
        ));
    };
    match kind {
        "store" => {
            let reader = open_reader(rest).map_err(|e| format!("--source {spec}: {e}"))?;
            if follow {
                let source = ChannelSource::replay(
                    format!("store:{rest}"),
                    &Replayer::new(reader),
                    selection,
                    speed,
                    4096,
                )
                .map_err(|e| format!("--source {spec}: {e}"))?;
                Ok(Box::new(source))
            } else {
                let source = StoreSource::open(format!("store:{rest}"), &reader, selection)
                    .map_err(|e| format!("--source {spec}: {e}"))?;
                Ok(Box::new(source))
            }
        }
        "jsonl" => {
            let reader: Box<dyn Read + Send> = if rest == "-" {
                Box::new(std::io::stdin())
            } else {
                let file = std::fs::File::open(rest)
                    .map_err(|e| format!("--source {spec}: cannot open {rest}: {e}"))?;
                Box::new(file)
            };
            let name = format!("jsonl:{rest}");
            Ok(Box::new(ChannelSource::jsonl(name, reader, 4096)))
        }
        "sim" => {
            let mut config = default_sim_config();
            for part in rest.split(',').filter(|p| !p.is_empty()) {
                match part.split_once('=') {
                    Some(("seed", v)) => {
                        config.seed = v
                            .parse()
                            .map_err(|_| format!("--source {spec}: bad seed `{v}`"))?;
                    }
                    Some(("clients", v)) => {
                        config.clients = v
                            .parse::<usize>()
                            .map_err(|_| format!("--source {spec}: bad clients `{v}`"))?
                            .max(3);
                    }
                    Some(("minutes", v)) => {
                        config.duration_ms = v
                            .parse::<u64>()
                            .map_err(|_| format!("--source {spec}: bad minutes `{v}`"))?
                            * 60_000;
                    }
                    None if part == "no-attack" => config.attack = None,
                    _ => {
                        return Err(format!(
                            "--source {spec}: unknown sim option `{part}` \
                             (use seed=, clients=, minutes=, no-attack)"
                        ))
                    }
                }
            }
            Ok(Box::new(TraceSource::generate(&config)))
        }
        other => Err(format!(
            "--source: unknown kind `{other}` (kinds: store, jsonl, sim)"
        )),
    }
}

/// Drive a session to completion: staged lifecycle operations land at
/// their exact base-stream positions, alerts print as they fire, and the
/// session finishes the stream (pipeline stages layer by layer, then the
/// engine). Returns the alert count.
fn run_to_end(session: &mut RunSession<'_>, schedule: &mut Schedule) -> Result<u64, String> {
    let mut alerts = 0u64;
    let mut print = |batch: Vec<saql_engine::Alert>| {
        for alert in batch {
            alerts += 1;
            println!("{alert}");
        }
    };
    // Positions count this session's base events.
    let start = session.offset();
    loop {
        let at = session.offset() - start;
        schedule.apply_due(at, session.engine())?;
        // Never pump past the next staged operation.
        let budget = schedule
            .next_position()
            .map_or(usize::MAX, |next| next.saturating_sub(at).max(1) as usize);
        let round = session.pump_max(budget);
        let status = round.status;
        print(round.alerts);
        match status {
            SessionStatus::Done => break,
            SessionStatus::Active => {}
            SessionStatus::Idle => std::thread::sleep(std::time::Duration::from_millis(2)),
        }
    }
    // Operations staged past the end of the stream apply before the flush.
    schedule.apply_due(u64::MAX, session.engine())?;
    print(session.finish());
    Ok(alerts)
}

/// Print per-source stats; failures and late drops also go to stderr.
/// Returns whether any source failed (the run is degraded: it completed,
/// but on less than the full data).
fn report_sources(session: &RunSession<'_>) -> bool {
    let mut degraded = false;
    for (id, s) in session.source_stats() {
        let mut line = format!("  {id} {}: {} events", s.name, s.events);
        if s.dropped_late > 0 {
            line.push_str(&format!(", {} dropped late", s.dropped_late));
            eprintln!(
                "warning: {id} {} dropped {} event(s) beyond the lateness bound \
                 (raise --lateness, or use --store/--follow for a full sort)",
                s.name, s.dropped_late
            );
        }
        if !s.done {
            line.push_str(&format!(", lag {}ms", s.lag.as_millis()));
        }
        println!("{line}");
        if let Some(failure) = &s.failure {
            eprintln!("warning: {id} {}: {failure}", s.name);
            degraded = true;
        }
    }
    degraded
}

/// `saql demo` — the end-to-end demonstration.
pub fn demo(argv: &[String]) -> Result<i32, String> {
    let flags = Flags::parse(argv)?;
    let config = sim_config(&flags)?;

    println!(
        "simulating enterprise: {} clients, {} min of monitoring data...",
        config.clients,
        config.duration_ms / 60_000
    );
    let trace = Simulator::generate(&config);
    println!(
        "  {} events from {} hosts",
        trace.events.len(),
        trace.topology.hosts.len()
    );
    for (step, first, last) in &trace.attack_spans {
        println!("  attack {}: {} .. {}", step.label(), first, last);
    }

    let mut schedule = Schedule::parse(&flags)?;
    let mut queries = demo_queries();
    let pipeline = corpus::DEMO_TIERED_PIPELINE_NAME;
    if flags.switch("pipeline") {
        queries.push((pipeline.to_string(), corpus::DEMO_TIERED_PIPELINE.into()));
    }
    let deployment = Deployment {
        engine: EngineConfig {
            record_latency: true,
            workers: flags.get_usize("workers", 0)?,
            ..EngineConfig::default()
        },
        queries,
        ..Deployment::default()
    };
    let mut run = deployment.open("", None).map_err(|e| e.to_string())?;
    let engine = &run.engine;
    let stages = engine.query_names().len() - corpus::DEMO_QUERIES.len();
    if stages > 0 {
        println!(
            "deployed tiered pipeline `{pipeline}` ({stages} stages: per-host bursts |> \
             cross-host correlation)"
        );
    }
    println!(
        "deployed {} queries in {} scheduler group(s){}\n",
        corpus::DEMO_QUERIES.len(),
        engine.group_count(),
        match engine.workers() {
            0 => String::new(),
            n => format!(" across {n} worker(s)"),
        }
    );

    let mut session = run.session();
    session.attach(TraceSource::whole(&trace));
    let alert_count = run_to_end(&mut session, &mut schedule)?;
    drop(session);

    println!("\n{alert_count} alert(s) total");
    print_stats(&run.engine);
    Ok(0)
}

/// `saql simulate --out DIR` — generate a trace into a new event store.
pub fn simulate(argv: &[String]) -> Result<i32, String> {
    let flags = Flags::parse(argv)?;
    let out = flags.get("out").ok_or("simulate requires --out DIR")?;
    let config = sim_config(&flags)?;
    let trace = Simulator::generate(&config);
    let mut store = StoreWriter::create_segmented(out)
        .map_err(|e| format!("cannot create store {out}: {e}"))?;
    store
        .append(&trace.events)
        .and_then(|_| store.seal())
        .and_then(|_| store.sync())
        .map_err(|e| format!("write failed: {e}"))?;
    println!(
        "wrote {} events ({} hosts, attack: {}) to {out}",
        trace.events.len(),
        trace.topology.hosts.len(),
        if config.attack.is_some() { "yes" } else { "no" },
    );
    print!(
        "{}",
        saql_collector::stats::TraceStats::compute(&trace.events).report()
    );
    Ok(0)
}

/// `saql replay` — replay stored (or piped, or simulated) data through
/// queries: one or more event sources fused by the session's watermarked
/// merge.
///
/// Durability flags: `--checkpoint-dir DIR` writes an engine checkpoint
/// every `--checkpoint-every N` events (default 4096); `--resume` restarts
/// from the checkpoint in that directory, replaying only the store suffix.
/// Checkpoints address events by stored-order offset, so a checkpointed or
/// resumed run takes exactly one `--store DIR` input, streamed in stored
/// order (no `--follow` pacing, no `--host`/`--from`/`--until` selection).
pub fn replay(argv: &[String]) -> Result<i32, String> {
    let flags = Flags::parse(argv)?;
    let selection = selection_from_flags(&flags)?;
    let speed = speed_from_flags(&flags)?;
    let follow = flags.switch("follow");
    let deployment = deployment(&flags, false)?;

    // Checkpoints address events by stored-order offset (see the command
    // docs): a checkpointed run's one `--store` is its durable log.
    let checkpointed = deployment.checkpoints.is_some();
    if checkpointed {
        if flags.get("store").is_none() || !flags.get_all("source").is_empty() {
            return Err("checkpointed runs take exactly one --store DIR input \
                        (offsets are per-store, not per-merge)"
                .into());
        }
        if follow {
            return Err("--follow replays in time-sorted order; checkpoint offsets \
                        are stored-order — drop --follow"
                .into());
        }
        if !selection.hosts.is_empty() || selection.from.is_some() || selection.until.is_some() {
            return Err("--host/--from/--until change stream offsets; checkpointed \
                        runs replay the whole store"
                .into());
        }
    }

    // `--store DIR` is the one-store form: replayed through the sorting
    // replayer, paced by `--speed` — or, on a checkpointed run, the durable
    // log the run streams in stored order. `--source KIND:...` attaches
    // additional (or alternative) feeds.
    let mut log = None;
    let mut sources: Vec<Box<dyn EventSource>> = Vec::new();
    if let Some(path) = flags.get("store") {
        let reader = open_reader(path)?;
        let name = format!("replay:{path}");
        if checkpointed {
            log = Some(DurableLog::Read(name, reader));
        } else {
            let replayer = Replayer::new(reader);
            let source = ChannelSource::replay(name, &replayer, &selection, speed, 4096)
                .map_err(|e| format!("replay failed: {e}"))?;
            sources.push(Box::new(source));
        }
    }
    for spec in flags.get_all("source") {
        sources.push(source_from_spec(spec, &selection, follow, speed)?);
    }
    let attached = sources.len() + usize::from(log.is_some());
    if attached == 0 {
        return Err("replay requires --store DIR or --source KIND:... (store, jsonl, sim)".into());
    }

    let mut schedule = Schedule::parse(&flags)?;
    let mut run = deployment.open("", log).map_err(|e| e.to_string())?;
    let engine = &run.engine;
    if engine.query_names().is_empty() && schedule.is_empty() {
        return Err(
            "no queries deployed (use --demo-queries, --query FILE, or --register-at)".into(),
        );
    }
    match run.resumed_at() {
        Some(offset) => println!(
            "resuming {} queries at offset {offset} ({} group(s))...",
            engine.query_names().len(),
            engine.group_count()
        ),
        None => println!(
            "replaying {attached} source(s) ({} queries, {} group(s))...",
            engine.query_names().len(),
            engine.group_count()
        ),
    }

    let mut session = run.session();
    for source in sources {
        session.attach(source);
    }
    let alerts = run_to_end(&mut session, &mut schedule)?;
    let events = session.processed();
    println!("\nreplayed {events} events, {alerts} alert(s)");
    let mut degraded = report_sources(&session);
    if let (Some(offset), Some(ck)) = (session.last_checkpoint(), &deployment.checkpoints) {
        println!("last checkpoint at offset {offset} in {}", ck.dir.display());
    }
    if let Some(e) = session.checkpoint_failure() {
        eprintln!("warning: checkpointing stopped: {e}");
        degraded = true;
    }
    drop(session);
    print_stats(&run.engine);
    // A failed source means the run completed on partial data.
    Ok(i32::from(degraded))
}

/// `saql export --store DIR [--out FILE|-]` — write a stored selection as
/// JSON-lines events (the interchange format `--source jsonl:` re-ingests),
/// streaming record by record.
pub fn export(argv: &[String]) -> Result<i32, String> {
    let flags = Flags::parse(argv)?;
    let path = flags.get("store").ok_or("export requires --store DIR")?;
    let selection = selection_from_flags(&flags)?;
    let reader = open_reader(path)?;
    let iter = reader
        .iter(&selection)
        .map_err(|e| format!("cannot read {path}: {e}"))?;
    let stdout = std::io::stdout();
    let mut writer: Box<dyn Write> = match flags.get("out") {
        None | Some("-") => Box::new(stdout.lock()),
        Some(out) => {
            let file =
                std::fs::File::create(out).map_err(|e| format!("cannot create {out}: {e}"))?;
            Box::new(std::io::BufWriter::new(file))
        }
    };
    // Stream straight through the shared JSONL writer, stopping at the
    // first corrupt record.
    let mut corrupt = None;
    let events = iter.map_while(|record| match record {
        Ok(event) => Some(event),
        Err(e) => {
            corrupt = Some(e);
            None
        }
    });
    let n = saql_stream::source::write_events_jsonl(&mut writer, events)
        .map_err(|e| format!("write failed: {e}"))?;
    drop(writer);
    if let Some(e) = corrupt {
        return Err(format!("corrupt store {path}: {e}"));
    }
    eprintln!("exported {n} event(s) from {path}");
    Ok(0)
}

/// `saql explain FILE...` — print the compiled execution plan of query
/// files: resolved slots, predicate sets, and register-program listings.
/// The per-query body is deterministic (the plan-dump golden tests diff it).
pub fn explain(argv: &[String]) -> Result<i32, String> {
    let flags = Flags::parse(argv)?;
    if flags.positional.is_empty() {
        return Err("explain requires at least one query file".into());
    }
    let mut failures = 0;
    for file in &flags.positional {
        let src = match std::fs::read_to_string(file) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("{file}: cannot read: {e}");
                failures += 1;
                continue;
            }
        };
        // Multi-stage (`|>`) files explain as a pipeline: topology header,
        // then each stage's plan. The pipeline is named after the file
        // stem so stage names (and the golden fixtures) stay path-free.
        let stem = stem(file);
        if matches!(saql_lang::split_stages(stem, &src), Ok(stages) if stages.len() > 1) {
            match saql_engine::pipeline::explain_pipeline(stem, &src) {
                Ok(text) => {
                    println!("# {file}");
                    print!("{text}");
                }
                Err(e) => {
                    eprint!("{file}: {e}");
                    failures += 1;
                }
            }
            continue;
        }
        match saql_engine::RunningQuery::compile(file.as_str(), &src, Default::default()) {
            Ok(query) => {
                println!("# {file}");
                print!("{}", query.explain());
            }
            Err(e) => {
                eprint!("{file}: {}", e.render(&src));
                failures += 1;
            }
        }
    }
    Ok(i32::from(failures > 0))
}

/// `saql check FILE...` — validate query files.
pub fn check(argv: &[String]) -> Result<i32, String> {
    let flags = Flags::parse(argv)?;
    if flags.positional.is_empty() {
        return Err("check requires at least one query file".into());
    }
    let mut failures = 0;
    for file in &flags.positional {
        let src = match std::fs::read_to_string(file) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("{file}: cannot read: {e}");
                failures += 1;
                continue;
            }
        };
        // Multi-stage (`|>`) files: validate the topology against an empty
        // registry (cycles, dangling `from query` refs), then every stage.
        let stem = stem(file);
        if let Ok(stages) = saql_lang::split_stages(stem, &src) {
            if stages.len() > 1 {
                let engine = Engine::new(EngineConfig::default());
                if let Err(e) = saql_engine::pipeline::validate_stages(&stages, &engine) {
                    eprint!("{file}: {}", e.render(&src));
                    failures += 1;
                    continue;
                }
                let mut ok = true;
                let mut kinds = Vec::new();
                for stage in &stages {
                    match saql_lang::compile(&stage.source) {
                        Ok(checked) => {
                            kinds.push(format!("{} ({})", stage.name, checked.kind.name()))
                        }
                        Err(e) => {
                            eprint!(
                                "{file}: stage `{}`: {}",
                                stage.name,
                                e.render(&stage.source)
                            );
                            ok = false;
                        }
                    }
                }
                if ok {
                    println!(
                        "{file}: OK ({} pipeline stages: {})",
                        stages.len(),
                        kinds.join(" |> ")
                    );
                } else {
                    failures += 1;
                }
                continue;
            }
        }
        match saql_lang::compile(&src) {
            Ok(checked) => {
                println!("{file}: OK ({} anomaly model)", checked.kind.name());
                print!("{}", saql_lang::pretty::print_query(&checked.ast));
            }
            Err(e) => {
                eprint!("{file}: {}", e.render(&src));
                failures += 1;
            }
        }
    }
    Ok(i32::from(failures > 0))
}

/// `saql repl` — interactive session.
pub fn repl(argv: &[String], input: &mut dyn BufRead, out: &mut dyn Write) -> Result<i32, String> {
    let flags = Flags::parse(argv)?;
    let store = flags.get("store").map(open_reader).transpose()?;
    Ok(repl_loop(input, out, store))
}

/// The REPL proper, I/O-parameterized for tests.
pub fn repl_loop(input: &mut dyn BufRead, out: &mut dyn Write, store: Option<StoreReader>) -> i32 {
    let mut engine = Engine::new(EngineConfig::default());
    let mut sources: Vec<(String, String)> = Vec::new();
    // Monotonic ad-hoc query counter: live-count-based names would collide
    // after an `undeploy` (names free up, but earlier `query-N` may remain).
    let mut adhoc_seq = 0usize;
    let _ = writeln!(
        out,
        "SAQL interactive session. Type a query (end with a blank line), or:\n  deploy-demo | list | show <name> | undeploy <name> | pause <name> |\n  resume <name> | run | stats | errors | quit"
    );
    let mut lines = input.lines();
    loop {
        let _ = write!(out, "saql> ");
        let _ = out.flush();
        let Some(Ok(line)) = lines.next() else {
            return 0;
        };
        let trimmed = line.trim().to_string();
        match trimmed.as_str() {
            "" => continue,
            "quit" | "exit" => return 0,
            "deploy-demo" => {
                for (name, src) in corpus::DEMO_QUERIES {
                    match engine.register(name, src) {
                        Ok(_) => sources.push((name.to_string(), src.to_string())),
                        Err(e) => {
                            let _ = writeln!(out, "error: {e}");
                        }
                    }
                }
                let _ = writeln!(
                    out,
                    "deployed {} queries ({} groups)",
                    engine.query_names().len(),
                    engine.group_count()
                );
            }
            "list" => {
                for (name, id) in engine.query_names().iter().zip(engine.query_ids()) {
                    let flag = if engine.is_paused(id) {
                        " [paused]"
                    } else {
                        ""
                    };
                    let _ = writeln!(out, "  {name}{flag}");
                }
            }
            "stats" => {
                for (name, s) in engine.query_stats() {
                    let _ = writeln!(
                        out,
                        "  {name}: seen={} matched={} windows={} alerts={}",
                        s.events_seen, s.events_matched, s.windows_closed, s.alerts
                    );
                }
            }
            "errors" => {
                let recent = engine.recent_errors();
                if recent.is_empty() {
                    let _ = writeln!(out, "  no runtime errors");
                }
                for e in recent {
                    let _ = writeln!(out, "  {e}");
                }
            }
            "run" => match &store {
                None => {
                    let _ = writeln!(out, "no store attached (start with --store DIR)");
                }
                Some(store) => {
                    // Re-open so a `run` sees events appended since attach.
                    let replayer = match Replayer::open(store.path()) {
                        Ok(r) => r,
                        Err(e) => {
                            let _ = writeln!(out, "store error: {e}");
                            continue;
                        }
                    };
                    match replayer.replay_iter(&Selection::all()) {
                        Ok(events) => {
                            let mut n = 0u64;
                            for event in events {
                                for alert in engine.process(&event).unwrap_or_default() {
                                    n += 1;
                                    let _ = writeln!(out, "{alert}");
                                }
                            }
                            for alert in engine.finish() {
                                n += 1;
                                let _ = writeln!(out, "{alert}");
                            }
                            let _ = writeln!(out, "{n} alert(s)");
                        }
                        Err(e) => {
                            let _ = writeln!(out, "replay error: {e}");
                        }
                    }
                }
            },
            cmd if cmd.starts_with("undeploy ") => {
                let name = cmd.trim_start_matches("undeploy ").trim();
                match engine.find(name) {
                    Some(id) => match engine.deregister(id) {
                        Ok(()) => {
                            sources.retain(|(n, _)| n != name);
                            let _ = writeln!(out, "undeployed `{name}` (windows flushed)");
                        }
                        Err(e) => {
                            let _ = writeln!(out, "error: {e}");
                        }
                    },
                    None => {
                        let _ = writeln!(out, "unknown query `{name}`");
                    }
                }
            }
            cmd if cmd.starts_with("pause ") || cmd.starts_with("resume ") => {
                let resume = cmd.starts_with("resume ");
                let name = cmd.split_once(' ').map(|(_, n)| n.trim()).unwrap_or("");
                match engine.find(name) {
                    Some(id) => {
                        let result = if resume {
                            engine.resume(id)
                        } else {
                            engine.pause(id)
                        };
                        match result {
                            Ok(()) => {
                                let verb = if resume { "resumed" } else { "paused" };
                                let _ = writeln!(out, "{verb} `{name}`");
                            }
                            Err(e) => {
                                let _ = writeln!(out, "error: {e}");
                            }
                        }
                    }
                    None => {
                        let _ = writeln!(out, "unknown query `{name}`");
                    }
                }
            }
            cmd if cmd.starts_with("show ") => {
                let name = cmd.trim_start_matches("show ").trim();
                match sources.iter().find(|(n, _)| n == name) {
                    Some((_, src)) => match saql_lang::parse(src) {
                        Ok(q) => {
                            let _ = write!(out, "{}", saql_lang::pretty::print_query(&q));
                        }
                        Err(e) => {
                            let _ = writeln!(out, "error: {e}");
                        }
                    },
                    None => {
                        let _ = writeln!(out, "unknown query `{name}`");
                    }
                }
            }
            first_line => {
                // Multi-line query entry, terminated by a blank line.
                let mut src = String::from(first_line);
                src.push('\n');
                for line in lines.by_ref() {
                    let Ok(line) = line else { break };
                    if line.trim().is_empty() {
                        break;
                    }
                    src.push_str(&line);
                    src.push('\n');
                }
                adhoc_seq += 1;
                let name = format!("query-{adhoc_seq}");
                match engine.register(&name, &src) {
                    Ok(_) => {
                        sources.push((name.clone(), src));
                        let _ = writeln!(out, "deployed `{name}`");
                    }
                    Err(e) => {
                        let _ = write!(out, "{}", e.render(&src));
                    }
                }
            }
        }
    }
}

fn print_stats(engine: &Engine) {
    let sched = engine.scheduler_stats();
    println!(
        "scheduler: {} events, {} master checks, {} deliveries, {} data copies",
        sched.events, sched.master_checks, sched.deliveries, sched.data_copies
    );
    for (id, s) in engine.shard_stats() {
        println!(
            "  shard {id}: {} master checks, {} deliveries",
            s.master_checks, s.deliveries
        );
    }
    if engine.dropped_alerts() > 0 {
        println!("dropped alerts: {}", engine.dropped_alerts());
    }
    if let Some(latency) = engine.latency() {
        println!("batch latency (ns/event): {}", latency.summary());
    }
    if engine.error_count() > 0 {
        println!("runtime errors: {}", engine.error_count());
        for e in engine.recent_errors().iter().take(5) {
            println!("  {e}");
        }
    }
}

// ---------------------------------------------------------------------
// serve / client — the networked serving layer (saql-serve)
// ---------------------------------------------------------------------

/// `saql serve`: stand the engine up as a resident multi-tenant service.
pub fn serve(argv: &[String]) -> Result<i32, String> {
    let cfg = serve_config(&Flags::parse(argv)?)?;
    saql_serve::install_signal_shutdown();
    let server = saql_serve::Server::start(cfg)?;
    eprintln!("[serve] listening on {}", server.addr());
    loop {
        if saql_serve::signalled() {
            eprintln!("[serve] signal received, draining...");
            server.request_shutdown();
            break;
        }
        if server.is_finished() {
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(50));
    }
    match server.wait() {
        Ok(summary) => {
            let ckpt = summary
                .checkpoint
                .as_ref()
                .map(|p| format!(", checkpoint {}", p.display()))
                .unwrap_or_default();
            let store = summary
                .store_len
                .map(|n| format!(", {n} events durable"))
                .unwrap_or_default();
            eprintln!(
                "[serve] stopped: {} events, {} alerts{store}{ckpt}",
                summary.events, summary.alerts
            );
            Ok(0)
        }
        Err(e) => {
            eprintln!("serve: {e}");
            Ok(1)
        }
    }
}

/// Parse `saql serve` flags into a [`saql_serve::ServeConfig`].
fn serve_config(flags: &Flags) -> Result<saql_serve::ServeConfig, String> {
    let deployment = deployment(flags, true)?;
    let quota = saql_serve::TenantQuota {
        max_live_queries: flags.get_usize("max-queries", 64)?,
        events_per_sec: flags.get_u64("events-per-sec", 0)?,
        burst: flags.get_u64("burst", 0)?,
    };
    let mut tenant_quotas = Vec::new();
    for spec in flags.get_all("tenant-quota") {
        tenant_quotas.push(parse_tenant_quota(spec, &quota)?);
    }
    Ok(saql_serve::ServeConfig {
        listen: flags.get("listen").unwrap_or("127.0.0.1:7878").to_string(),
        deployment,
        ingest_buffer: flags.get_usize("ingest-buffer", 4096)?,
        quota,
        tenant_quotas,
        durable_store: flags.get("store").map(PathBuf::from),
        print_alerts: !flags.switch("quiet"),
        drain_grace: std::time::Duration::from_millis(flags.get_u64("grace", 5000)?),
        ..saql_serve::ServeConfig::default()
    })
}

/// `TENANT:EVENTS_PER_SEC[:BURST]`, inheriting the default quota's
/// live-query ceiling.
fn parse_tenant_quota(
    spec: &str,
    default: &saql_serve::TenantQuota,
) -> Result<(String, saql_serve::TenantQuota), String> {
    let mut parts = spec.split(':');
    let tenant = parts
        .next()
        .filter(|t| !t.is_empty())
        .ok_or_else(|| format!("bad --tenant-quota `{spec}` (TENANT:EPS[:BURST])"))?;
    let eps: u64 = parts
        .next()
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| format!("bad --tenant-quota `{spec}` (TENANT:EPS[:BURST])"))?;
    let burst: u64 = match parts.next() {
        Some(v) => v
            .parse()
            .map_err(|_| format!("bad --tenant-quota `{spec}` (TENANT:EPS[:BURST])"))?,
        None => 0,
    };
    Ok((
        tenant.to_string(),
        saql_serve::TenantQuota {
            max_live_queries: default.max_live_queries,
            events_per_sec: eps,
            burst,
        },
    ))
}

/// `saql client`: talk to a running `saql serve` (ingest / tail / ctl).
pub fn client(argv: &[String]) -> Result<i32, String> {
    let verb = argv
        .first()
        .ok_or("client needs a verb: ingest, tail, or ctl")?;
    let flags = Flags::parse(&argv[1..])?;
    let addr = flags.get("addr").unwrap_or("127.0.0.1:7878").to_string();
    let tenant = flags
        .get("tenant")
        .unwrap_or(saql_serve::DEFAULT_TENANT)
        .to_string();
    match verb.as_str() {
        "ingest" => {
            let source = flags.get("source").unwrap_or("cli").to_string();
            let file = flags.get("file").unwrap_or("-");
            let lossless = flags.switch("lossless");
            let arrival = flags.switch("arrival");
            let report = if file == "-" {
                let stdin = std::io::stdin();
                let mut lock = stdin.lock();
                saql_serve::ingest_reader(&addr, &tenant, &source, &mut lock, lossless, arrival)
            } else {
                saql_serve::ingest_file(&addr, &tenant, &source, Path::new(file), lossless, arrival)
            }
            .map_err(|e| e.to_string())?;
            println!("{}", report.summary);
            Ok(0)
        }
        "tail" => {
            let query = flags.get("query").ok_or("client tail needs --query NAME")?;
            let max = flags
                .get("max")
                .map(|_| flags.get_u64("max", 0).unwrap_or(0));
            let mut out = std::io::stdout();
            saql_serve::tail_alerts(&addr, &tenant, query, &mut out, max)
                .map_err(|e| e.to_string())?;
            Ok(0)
        }
        "ctl" => {
            let line = client_ctl_line(&flags)?;
            let response = saql_serve::ctl(&addr, &tenant, &line).map_err(|e| e.to_string())?;
            println!("{response}");
            Ok(i32::from(response.contains("\"ok\":false")))
        }
        other => Err(format!("unknown client verb `{other}`")),
    }
}

/// Build the control line: raw JSON passthrough, or the
/// `CMD [NAME] [FILE]` shorthand (`register exfil q.saql`, `stats`, ...).
fn client_ctl_line(flags: &Flags) -> Result<String, String> {
    let pos = &flags.positional;
    let Some(first) = pos.first() else {
        return Err("client ctl needs a command (JSON or `CMD [NAME] [FILE]`)".into());
    };
    if first.trim_start().starts_with('{') {
        return Ok(first.clone());
    }
    let obj = saql_serve::protocol::JsonObj::new().str("cmd", first);
    match first.as_str() {
        "list" | "stats" | "checkpoint" | "shutdown" => Ok(obj.finish()),
        "deregister" | "pause" | "resume" => {
            let name = pos.get(1).ok_or(format!("`{first}` needs NAME"))?;
            Ok(obj.str("name", name).finish())
        }
        "register" => {
            let name = pos.get(1).ok_or("`register` needs NAME FILE")?;
            let file = pos.get(2).ok_or("`register` needs NAME FILE")?;
            let src =
                std::fs::read_to_string(file).map_err(|e| format!("cannot read {file}: {e}"))?;
            Ok(obj.str("name", name).str("query", &src).finish())
        }
        other => Err(format!("unknown control command `{other}`")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn repl_deploys_and_lists_demo_queries() {
        let mut input = Cursor::new("deploy-demo\nlist\nquit\n");
        let mut out = Vec::new();
        let code = repl_loop(&mut input, &mut out, None);
        assert_eq!(code, 0);
        let shown = String::from_utf8(out).unwrap();
        assert!(shown.contains("deployed 8 queries"), "{shown}");
        assert!(shown.contains("c5-exfiltration"), "{shown}");
    }

    #[test]
    fn repl_accepts_multiline_query_and_reports_errors() {
        let mut input = Cursor::new(
            "proc p1[\"%cmd.exe\"] start proc p2 as e1\nreturn p1, p2\n\nproc p teleport proc q as e\n\nquit\n",
        );
        let mut out = Vec::new();
        repl_loop(&mut input, &mut out, None);
        let shown = String::from_utf8(out).unwrap();
        assert!(shown.contains("deployed `query-1`"), "{shown}");
        assert!(shown.contains("unknown operation `teleport`"), "{shown}");
    }

    #[test]
    fn schedule_parses_and_orders_lifecycle_flags() {
        let argv: Vec<String> = [
            "--deregister-at",
            "300:watch",
            "--register-at",
            "100:watch=w.saql",
            "--pause-at",
            "200:c2-malware-infection",
            "--resume-at",
            "250:c2-malware-infection",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect();
        let flags = Flags::parse(&argv).unwrap();
        let schedule = Schedule::parse(&flags).unwrap();
        assert!(!schedule.is_empty());
        let positions: Vec<u64> = schedule.ops.iter().map(|(at, _)| *at).collect();
        assert_eq!(positions, vec![100, 200, 250, 300]);
        assert!(matches!(
            &schedule.ops[0].1,
            StagedOp::Register { name, path } if name == "watch" && path == "w.saql"
        ));
        assert!(matches!(&schedule.ops[3].1, StagedOp::Deregister { name } if name == "watch"));
    }

    #[test]
    fn schedule_rejects_malformed_specs() {
        let parse = |s: &str| {
            let argv: Vec<String> = s.split_whitespace().map(String::from).collect();
            Schedule::parse(&Flags::parse(&argv).unwrap())
        };
        assert!(parse("--register-at watch=w.saql").is_err(), "missing N:");
        assert!(parse("--register-at 5:watch").is_err(), "missing =FILE");
        assert!(parse("--pause-at ten:watch").is_err(), "non-numeric N");
        assert!(parse("--deregister-at 5:w").is_ok());
    }

    #[test]
    fn schedule_applies_ops_against_live_engine() {
        let mut query_file = std::env::temp_dir();
        query_file.push(format!("saql-cli-sched-{}.saql", std::process::id()));
        std::fs::write(&query_file, "proc p start proc q as e\nreturn p, q").unwrap();
        let argv: Vec<String> = [
            format!("--register-at 1:late={}", query_file.display()),
            "--pause-at 2:late".to_string(),
            "--resume-at 3:late".to_string(),
            "--deregister-at 4:late".to_string(),
        ]
        .iter()
        .flat_map(|s| s.split(' ').map(String::from))
        .collect();
        let mut schedule = Schedule::parse(&Flags::parse(&argv).unwrap()).unwrap();
        let mut engine = Engine::new(EngineConfig::default());
        for processed in 0..=5u64 {
            schedule.apply_due(processed, &mut engine).unwrap();
            match processed {
                0 => assert!(engine.find("late").is_none()),
                1 => assert!(engine.find("late").is_some()),
                2 => assert!(engine.is_paused(engine.find("late").unwrap())),
                3 => assert!(!engine.is_paused(engine.find("late").unwrap())),
                _ => assert!(engine.find("late").is_none(), "deregistered"),
            }
        }
        std::fs::remove_file(query_file).unwrap();
    }

    #[test]
    fn schedule_fails_on_unknown_query_name() {
        let argv: Vec<String> = ["--pause-at", "0:ghost"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let mut schedule = Schedule::parse(&Flags::parse(&argv).unwrap()).unwrap();
        let mut engine = Engine::new(EngineConfig::default());
        let err = schedule.apply_due(0, &mut engine).unwrap_err();
        assert!(err.contains("no live query `ghost`"), "{err}");
    }

    #[test]
    fn repl_lifecycle_commands_round_trip() {
        let mut input = Cursor::new(
            "deploy-demo\npause c2-malware-infection\nlist\nresume c2-malware-infection\nundeploy c2-malware-infection\nlist\npause ghost\nquit\n",
        );
        let mut out = Vec::new();
        let code = repl_loop(&mut input, &mut out, None);
        assert_eq!(code, 0);
        let shown = String::from_utf8(out).unwrap();
        assert!(shown.contains("paused `c2-malware-infection`"), "{shown}");
        assert!(shown.contains("c2-malware-infection [paused]"), "{shown}");
        assert!(shown.contains("resumed `c2-malware-infection`"), "{shown}");
        assert!(
            shown.contains("undeployed `c2-malware-infection`"),
            "{shown}"
        );
        assert!(shown.contains("unknown query `ghost`"), "{shown}");
        // After undeploy the second `list` no longer shows the query.
        let after = shown.split("undeployed").nth(1).unwrap();
        assert!(!after.contains("c2-malware-infection [paused]"), "{shown}");
    }

    #[test]
    fn repl_adhoc_names_stay_unique_after_undeploy() {
        // Deploy two ad-hoc queries, undeploy the first, deploy a third:
        // the auto-name must not collide with the still-live `query-2`.
        let mut input = Cursor::new(
            "proc a start proc b as e\nreturn a\n\nproc c start proc d as e\nreturn c\n\nundeploy query-1\nproc x start proc y as e\nreturn y\n\nlist\nquit\n",
        );
        let mut out = Vec::new();
        repl_loop(&mut input, &mut out, None);
        let shown = String::from_utf8(out).unwrap();
        assert!(shown.contains("deployed `query-1`"), "{shown}");
        assert!(shown.contains("deployed `query-2`"), "{shown}");
        assert!(shown.contains("undeployed `query-1`"), "{shown}");
        assert!(shown.contains("deployed `query-3`"), "{shown}");
        assert!(!shown.contains("already registered"), "{shown}");
    }

    #[test]
    fn repl_run_without_store_explains() {
        let mut input = Cursor::new("run\nquit\n");
        let mut out = Vec::new();
        repl_loop(&mut input, &mut out, None);
        let shown = String::from_utf8(out).unwrap();
        assert!(shown.contains("no store attached"), "{shown}");
    }

    #[test]
    fn repl_runs_store_end_to_end() {
        // Store a small attack trace, deploy demo queries, run.
        let trace = Simulator::generate(&SimConfig {
            seed: 5,
            clients: 4,
            duration_ms: 45 * 60_000,
            attack: Some(AttackConfig {
                start: Timestamp::from_millis(20 * 60_000),
                step_gap_ms: 3 * 60_000,
            }),
        });
        let mut path = std::env::temp_dir();
        path.push(format!("saql-cli-repl-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        let mut store = StoreWriter::create_segmented(&path).unwrap();
        store.append(&trace.events).unwrap();
        store.sync().unwrap();
        drop(store);

        let mut input = Cursor::new("deploy-demo\nrun\nstats\nquit\n");
        let mut out = Vec::new();
        let code = repl_loop(
            &mut input,
            &mut out,
            Some(StoreReader::open(&path).unwrap()),
        );
        assert_eq!(code, 0);
        let shown = String::from_utf8(out).unwrap();
        assert!(shown.contains("ALERT c5-exfiltration"), "{shown}");
        assert!(shown.contains("alerts="), "{shown}");
        std::fs::remove_dir_all(path).unwrap();
    }

    #[test]
    fn staged_positions_count_base_events_on_a_pipelined_run() {
        // Adapted alerts and punctuations flow through the same session;
        // a staged operation at N must still land after exactly N events
        // of the stream — here `q` is paused for events [100, 200).
        use saql_model::event::EventBuilder;
        use saql_model::{NetworkInfo, ProcessInfo};
        use std::sync::Arc;
        let tiered = "proc p write ip i as evt #time(10 s)\n\
                      state ss { writes := count() } group by evt.agentid\n\
                      alert ss[0].writes >= 3\n\
                      return evt.agentid as host, ss[0].writes as amount\n\
                      |>\n\
                      from #time(30 s)\n\
                      state es { hosts := distinct_count(_in.agentid) }\n\
                      alert es[0].hosts >= 2\n\
                      return es[0].hosts as hosts";
        let events: Vec<saql_stream::SharedEvent> = (0..300u64)
            .map(|i| {
                Arc::new(
                    EventBuilder::new(i + 1, format!("web-{}", i % 3), 1_000 + i * 700)
                        .subject(ProcessInfo::new(100, "worker", "svc"))
                        .sends(NetworkInfo::new("10.0.0.1", 9999, "172.16.0.9", 443, "tcp"))
                        .amount(1024)
                        .build(),
                )
            })
            .collect();
        let mut engine = Engine::new(EngineConfig::default());
        saql_engine::register_pipeline(&mut engine, "tiered", tiered).unwrap();
        engine
            .register("q", "proc p write ip i as evt\nreturn p, i")
            .unwrap();
        let argv: Vec<String> = ["--pause-at", "100:q", "--resume-at", "200:q"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let mut schedule = Schedule::parse(&Flags::parse(&argv).unwrap()).unwrap();
        let mut session = engine.session();
        session.attach(saql_stream::source::IterSource::new("trace", events));
        run_to_end(&mut session, &mut schedule).unwrap();
        assert!(session.processed() > 300, "the pipeline derived events");
        drop(session);
        let stats = engine.query_stats();
        let (_, q) = stats.iter().find(|(name, _)| name == "q").unwrap();
        assert_eq!(q.events_seen, 200);
    }
}
