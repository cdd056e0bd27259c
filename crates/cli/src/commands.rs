//! CLI subcommand implementations.

use std::io::{BufRead, Read, Write};
use std::path::{Path, PathBuf};

use saql_collector::{AttackConfig, SimConfig, Simulator, TraceSource};
use saql_engine::{
    CheckpointConfig, Control, ControlReply, Deployment, DurableLog, Engine, EngineConfig,
    RunSession, Scope,
};
use saql_lang::corpus;
use saql_model::{Duration, Timestamp};
use saql_stream::source::{ChannelSource, EventSource, Speed, StoreSource, FLOOR_GATED};
use saql_stream::store::Selection;
use saql_stream::{Lateness, MergeConfig, StoreReader, StoreWriter};

use saql_serve::Request;

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

/// The staged lifecycle flags — repeatable `--register-at N:NAME=FILE`,
/// `--deregister-at N:NAME`, `--pause-at N:NAME` and `--resume-at N:NAME`
/// — as controls at base-stream positions. An operation at `N` applies
/// once `N` events have been processed (so `0` is before the first
/// event); ties apply registrations first, then deregistrations, pauses
/// and resumes. A FILE is read here, before the run starts.
fn staged(flags: &Flags) -> Result<Vec<(u64, Control)>, String> {
    let mut ops = Vec::new();
    for verb in ["register", "deregister", "pause", "resume"] {
        let flag = format!("{verb}-at");
        for spec in flags.get_all(&flag) {
            let (at, rest) = split_position(&flag, spec)?;
            let words = match rest.split_once('=') {
                Some((name, file)) if verb == "register" => vec![verb, name, file],
                _ => vec![verb, rest],
            };
            let op = parse_words(&words).expect("a control verb");
            ops.push((at, op.map_err(|e| format!("--{flag} {spec}: {e}"))?));
        }
    }
    // Stable: ties keep the register → deregister → pause → resume
    // order of the loop above.
    ops.sort_by_key(|(at, _)| *at);
    Ok(ops)
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

/// The text form of an applied control: the repl's reply, and the staged
/// flags' log line.
fn render_control(applied: &ControlReply) -> String {
    match applied {
        ControlReply::Registered { name, id, stages } => match stages.len() {
            1 => format!("registered `{name}` as {id}"),
            n => format!(
                "registered pipeline `{name}` ({n} stages: {})",
                stages.join(" |> ")
            ),
        },
        ControlReply::Deregistered { removed, id } => format!(
            "deregistered `{}` ({id}); open windows flushed",
            removed.join("`, `")
        ),
        ControlReply::Paused { name, id } => format!("paused `{name}` ({id})"),
        ControlReply::Resumed { name, id } => format!("resumed `{name}` ({id})"),
        ControlReply::Listed(queries) if queries.is_empty() => "no live queries".to_string(),
        ControlReply::Listed(queries) => queries
            .iter()
            .map(|q| format!("  {}{}", q.name, if q.paused { " [paused]" } else { "" }))
            .collect::<Vec<_>>()
            .join("\n"),
        ControlReply::Checkpointed(written) => format!(
            "checkpoint at offset {} in {}",
            written.offset,
            written.path.display()
        ),
    }
}

/// The word form of a control, `CMD [NAME] [FILE]`, shared by the repl and
/// `saql client ctl`: `register NAME FILE`, `deregister NAME` (the repl's
/// `undeploy NAME`), `pause NAME`, `resume NAME`, `list`, `checkpoint`.
/// `None` when the first word is none of these.
fn parse_words(words: &[&str]) -> Option<Result<Control, String>> {
    let (&verb, args) = words.split_first()?;
    let verb = if verb == "undeploy" {
        "deregister"
    } else {
        verb
    };
    let text = match (verb, args.get(1)) {
        ("register", Some(file)) => match std::fs::read_to_string(file) {
            Ok(text) => Some(text),
            Err(e) => return Some(Err(format!("cannot read {file}: {e}"))),
        },
        ("register", None) => return Some(Err("`register` needs NAME FILE".to_string())),
        _ => None,
    };
    Control::parse(verb, args.first().map(|name| name.to_string()), text)
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

/// Build one event source from a `--source` spec, with the lateness it
/// attaches with (`None`: the session's default):
///
/// * `store:DIR` — stream a stored selection (with `--follow`, replay it
///   sorted by its verified floor and paced by `--speed` instead);
/// * `jsonl:FILE` / `jsonl:-` — read JSON-lines events from a file/stdin,
///   decoded off the session thread by the NDJSON ingest stage;
/// * `sim:KEY=VAL,...` — generate a deterministic trace live
///   (`seed=`, `clients=`, `minutes=`, `no-attack`).
fn source_from_spec(
    spec: &str,
    selection: &Selection,
    follow: bool,
    speed: Speed,
) -> Result<(Box<dyn EventSource>, Option<Lateness>), String> {
    let Some((kind, rest)) = spec.split_once(':') else {
        return Err(format!(
            "--source expects KIND:..., got `{spec}` (kinds: store, jsonl, sim)"
        ));
    };
    match kind {
        "store" => {
            let reader = open_reader(rest).map_err(|e| format!("--source {spec}: {e}"))?;
            let name = format!("store:{rest}");
            let source = StoreSource::open(name, &reader, selection);
            Ok(if follow {
                (speed.pace(source), Some(FLOOR_GATED))
            } else {
                (Box::new(source), None)
            })
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
            Ok((Box::new(ChannelSource::jsonl(name, reader, 4096)), None))
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
            Ok((Box::new(TraceSource::generate(&config)), None))
        }
        other => Err(format!(
            "--source: unknown kind `{other}` (kinds: store, jsonl, sim)"
        )),
    }
}

/// Drive a session to completion: staged lifecycle operations land at
/// their exact base-stream positions, each logged as `[control +N] ...`,
/// alerts print as they fire, and the session finishes the stream
/// (pipeline stages layer by layer, then the engine). Returns the alert
/// count.
fn run_to_end(session: &mut RunSession<'_>, staged: Vec<(u64, Control)>) -> Result<u64, String> {
    let mut alerts = 0u64;
    let mut print = |batch: Vec<saql_engine::Alert>| {
        for alert in batch {
            alerts += 1;
            println!("{alert}");
        }
    };
    let mut log = |pos, applied: ControlReply| {
        println!("[control +{pos}] {}", render_control(&applied));
    };
    session
        .run_staged(staged, &mut print, &mut log)
        .map_err(|(pos, e)| format!("[control +{pos}] {e}"))?;
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
                 (raise --lateness, or read a store with --store or --follow, \
                 sorted by its verified floor)",
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

    let staged = staged(&flags)?;
    let mut queries = demo_queries();
    let pipeline = corpus::DEMO_TIERED_PIPELINE_NAME;
    if flags.switch("pipeline") {
        queries.push((pipeline.to_string(), corpus::DEMO_TIERED_PIPELINE.into()));
    }
    let deployment = Deployment {
        engine: EngineConfig {
            record_latency: true,
            workers: flags.get_usize("workers", 0)?,
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
    let alert_count = run_to_end(&mut session, staged)?;
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
/// merge. `--store DIR` is one store, sorted by its verified floor, paced
/// by `--speed`.
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

    // `--store DIR` is the one-store form: sorted by its verified floor,
    // paced by `--speed` — or, on a checkpointed run, the durable log the
    // run streams in stored order. `--source KIND:...` attaches additional
    // (or alternative) feeds.
    let mut log = None;
    let mut sources = Vec::new();
    if let Some(path) = flags.get("store") {
        let reader = open_reader(path)?;
        let name = format!("replay:{path}");
        if checkpointed {
            log = Some(DurableLog::Read(name, reader));
        } else {
            let source = StoreSource::open(name, &reader, &selection);
            sources.push((speed.pace(source), Some(FLOOR_GATED)));
        }
    }
    for spec in flags.get_all("source") {
        sources.push(source_from_spec(spec, &selection, follow, speed)?);
    }
    let attached = sources.len() + usize::from(log.is_some());
    if attached == 0 {
        return Err("replay requires --store DIR or --source KIND:... (store, jsonl, sim)".into());
    }

    let staged = staged(&flags)?;
    let mut run = deployment.open("", log).map_err(|e| e.to_string())?;
    let engine = &run.engine;
    if engine.query_names().is_empty() && staged.is_empty() {
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
    for (source, lateness) in sources {
        match lateness {
            Some(lateness) => session.attach_with(source, lateness),
            None => session.attach(source),
        };
    }
    let alerts = run_to_end(&mut session, staged)?;
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
    let events = reader.iter(&selection).map_while(|record| match record {
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
        match saql_engine::RunningQuery::compile(file.as_str(), &src) {
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

/// `saql repl` — interactive session over `input`, answering on `out`.
pub fn repl(argv: &[String], input: &mut dyn BufRead, out: &mut dyn Write) -> Result<i32, String> {
    let flags = Flags::parse(argv)?;
    let store = flags.get("store").map(open_reader).transpose()?;
    let mut engine = Engine::new(EngineConfig::default());
    // Monotonic ad-hoc query counter: live-count-based names would collide
    // after an `undeploy` (names free up, but earlier `query-N` may remain).
    let mut adhoc_seq = 0usize;
    let _ = writeln!(
        out,
        "SAQL interactive session. Type a query (end with a blank line), or:\n  \
         deploy-demo | register NAME FILE | list | show NAME | undeploy NAME |\n  \
         pause NAME | resume NAME | run | stats | errors | quit"
    );
    let mut lines = input.lines();
    loop {
        let _ = write!(out, "saql> ");
        let _ = out.flush();
        let Some(Ok(line)) = lines.next() else {
            return Ok(0);
        };
        let words: Vec<&str> = line.split_whitespace().collect();
        let ops = match words.as_slice() {
            [] => continue,
            ["quit" | "exit"] => return Ok(0),
            ["deploy-demo"] => demo_queries()
                .into_iter()
                .map(|(name, text)| Ok(Control::Register { name, text }))
                .collect(),
            ["stats"] => {
                for (name, s) in engine.query_stats() {
                    let _ = writeln!(
                        out,
                        "  {name}: seen={} matched={} windows={} alerts={}",
                        s.events_seen, s.events_matched, s.windows_closed, s.alerts
                    );
                }
                continue;
            }
            ["errors"] => {
                let recent = engine.recent_errors();
                if recent.is_empty() {
                    let _ = writeln!(out, "  no runtime errors");
                }
                for e in recent {
                    let _ = writeln!(out, "  {e}");
                }
                continue;
            }
            ["run"] => {
                let _ = repl_run(&mut engine, store.as_ref(), out);
                continue;
            }
            ["show", name] => {
                let shown = Scope::UNSCOPED
                    .find(&engine, name)
                    .and_then(|id| {
                        let text = engine.source_of(id).unwrap_or_default();
                        saql_lang::parse(text).map_err(|e| e.to_string())
                    })
                    .map(|q| saql_lang::pretty::print_query(&q));
                match shown {
                    Ok(text) => write!(out, "{text}"),
                    Err(e) => writeln!(out, "error: {e}"),
                }
                .ok();
                continue;
            }
            words => vec![parse_words(words).unwrap_or_else(|| {
                // Multi-line query entry, terminated by a blank line.
                let mut text = format!("{line}\n");
                for line in lines.by_ref() {
                    let Ok(line) = line else { break };
                    if line.trim().is_empty() {
                        break;
                    }
                    text.push_str(&line);
                    text.push('\n');
                }
                adhoc_seq += 1;
                let name = format!("query-{adhoc_seq}");
                Ok(Control::Register { name, text })
            })],
        };
        for op in ops {
            match op.and_then(|op| engine.session().control(&Scope::UNSCOPED, op)) {
                Ok(applied) => writeln!(out, "{}", render_control(&applied)),
                Err(e) => writeln!(out, "error: {}", e.trim_end()),
            }
            .ok();
        }
    }
}

/// The repl's `run`: the store, re-opened so events appended since attach
/// are seen, sorted by its verified floor through a session that drains
/// it.
fn repl_run(
    engine: &mut Engine,
    store: Option<&StoreReader>,
    out: &mut dyn Write,
) -> std::io::Result<()> {
    let Some(store) = store else {
        return writeln!(out, "no store attached (start with --store DIR)");
    };
    let name = format!("repl:{}", store.path().display());
    let source = match StoreReader::open(store.path()) {
        Ok(reader) => StoreSource::open(name, &reader, &Selection::all()),
        Err(e) => return writeln!(out, "replay error: {e}"),
    };
    let mut session = engine.session();
    session.attach_with(source, FLOOR_GATED);
    let alerts = session.drain();
    for alert in &alerts {
        writeln!(out, "{alert}")?;
    }
    writeln!(out, "{} alert(s)", alerts.len())
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
                .map(|_| flags.get_u64("max", 0))
                .transpose()?;
            let mut out = std::io::stdout();
            saql_serve::tail_alerts(&addr, &tenant, query, &mut out, max)
                .map_err(|e| e.to_string())?;
            Ok(0)
        }
        "ctl" => {
            let line = ctl_line(&flags.positional)?;
            let response = saql_serve::ctl(&addr, &tenant, &line).map_err(|e| e.to_string())?;
            println!("{response}");
            Ok(i32::from(response.contains("\"ok\":false")))
        }
        other => Err(format!("unknown client verb `{other}`")),
    }
}

/// The control line `client ctl` sends: raw JSON passed through, or the
/// word form — a control ([`parse_words`]), `stats` or `shutdown`.
fn ctl_line(words: &[String]) -> Result<String, String> {
    let Some(first) = words.first() else {
        return Err("client ctl needs a command (JSON or `CMD [NAME] [FILE]`)".into());
    };
    if first.trim_start().starts_with('{') {
        return Ok(first.clone());
    }
    let words: Vec<&str> = words.iter().map(String::as_str).collect();
    let request = match words[0] {
        "stats" => Request::Stats,
        "shutdown" => Request::Shutdown,
        cmd => Request::Control(
            parse_words(&words)
                .unwrap_or_else(|| Err(format!("unknown control command `{cmd}`")))?,
        ),
    };
    Ok(saql_serve::protocol::request_line(&request))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    #[test]
    fn repl_deploys_and_lists_demo_queries() {
        let mut input = Cursor::new("deploy-demo\nlist\nquit\n");
        let mut out = Vec::new();
        let code = repl(&[], &mut input, &mut out).unwrap();
        assert_eq!(code, 0);
        let shown = String::from_utf8(out).unwrap();
        assert_eq!(shown.matches("registered `").count(), 8, "{shown}");
        assert!(shown.contains("c5-exfiltration"), "{shown}");
    }

    #[test]
    fn repl_accepts_multiline_query_and_reports_errors() {
        let mut input = Cursor::new(
            "proc p1[\"%cmd.exe\"] start proc p2 as e1\nreturn p1, p2\n\nproc p teleport proc q as e\n\nquit\n",
        );
        let mut out = Vec::new();
        repl(&[], &mut input, &mut out).unwrap();
        let shown = String::from_utf8(out).unwrap();
        assert!(shown.contains("registered `query-1`"), "{shown}");
        assert!(shown.contains("unknown operation `teleport`"), "{shown}");
    }

    fn argv(words: &[&str]) -> Vec<String> {
        words.iter().map(|s| s.to_string()).collect()
    }

    /// A query file in the temp dir, unique per test.
    fn query_file(tag: &str, text: &str) -> PathBuf {
        let path = std::env::temp_dir().join(format!("saql-cli-{tag}-{}.saql", std::process::id()));
        std::fs::write(&path, text).unwrap();
        path
    }

    #[test]
    fn staged_flags_parse_in_position_order() {
        let file = query_file("order", "proc p start proc q as e\nreturn p, q");
        let spec = format!("100:watch={}", file.display());
        let flags = Flags::parse(&argv(&[
            "--deregister-at",
            "300:watch",
            "--register-at",
            &spec,
            "--pause-at",
            "200:c2-malware-infection",
            "--resume-at",
            "250:c2-malware-infection",
        ]))
        .unwrap();
        let ops = staged(&flags).unwrap();
        let positions: Vec<u64> = ops.iter().map(|(at, _)| *at).collect();
        assert_eq!(positions, vec![100, 200, 250, 300]);
        assert!(matches!(
            &ops[0].1,
            Control::Register { name, text } if name == "watch" && text.starts_with("proc p")
        ));
        assert!(matches!(&ops[3].1, Control::Deregister { name } if name == "watch"));
        // Ties keep register → deregister → pause → resume.
        let flags = Flags::parse(&argv(&[
            "--resume-at",
            "7:w",
            "--pause-at",
            "7:w",
            "--deregister-at",
            "7:w",
            "--register-at",
            &format!("7:w={}", file.display()),
        ]))
        .unwrap();
        let order: Vec<&str> = staged(&flags)
            .unwrap()
            .iter()
            .map(|(_, op)| match op {
                Control::Register { .. } => "register",
                Control::Deregister { .. } => "deregister",
                Control::Pause { .. } => "pause",
                Control::Resume { .. } => "resume",
                _ => "other",
            })
            .collect();
        assert_eq!(order, ["register", "deregister", "pause", "resume"]);
        std::fs::remove_file(file).unwrap();
    }

    #[test]
    fn staged_flags_reject_malformed_specs() {
        let parse = |s: &str| {
            let argv: Vec<String> = s.split_whitespace().map(String::from).collect();
            staged(&Flags::parse(&argv).unwrap())
        };
        assert!(parse("--register-at watch=w.saql").is_err(), "missing N:");
        assert!(parse("--register-at 5:watch").is_err(), "missing =FILE");
        assert!(parse("--pause-at ten:watch").is_err(), "non-numeric N");
        let err = parse("--register-at 5:w=/nonexistent/w.saql").unwrap_err();
        assert!(err.contains("cannot read"), "read before the run: {err}");
        assert!(parse("--deregister-at 5:w").is_ok());
    }

    #[test]
    fn staged_ops_apply_at_exact_positions() {
        // `late` is live for events [1, 4) and paused for [2, 3): of six
        // `cmd.exe` starts it sees exactly the second and the fourth.
        let file = query_file("apply", "proc p start proc q as e\nreturn p, q");
        let flags = Flags::parse(&argv(&[
            "--register-at",
            &format!("1:late={}", file.display()),
            "--pause-at",
            "2:late",
            "--resume-at",
            "3:late",
            "--deregister-at",
            "4:late",
        ]))
        .unwrap();
        let staged = staged(&flags).unwrap();
        std::fs::remove_file(file).unwrap();
        let starts: Vec<_> = (1..=6u64)
            .map(|i| {
                std::sync::Arc::new(
                    saql_model::event::EventBuilder::new(i, "h", i * 10)
                        .subject(saql_model::ProcessInfo::new(1, "cmd.exe", "u"))
                        .starts_process(saql_model::ProcessInfo::new(2, "calc.exe", "u"))
                        .build(),
                )
            })
            .collect();
        let mut engine = Engine::new(EngineConfig::default());
        let mut session = engine.session();
        session.attach(saql_stream::source::IterSource::new("starts", starts));
        let trace = run_traced(&mut session, staged);
        let expected = [
            "[control +1] registered `late`",
            "alert late @20",
            "[control +2] paused `late`",
            "[control +3] resumed `late`",
            "alert late @40",
            "[control +4] deregistered `late`",
        ];
        assert_eq!(trace.len(), expected.len(), "{trace:#?}");
        for (line, want) in trace.iter().zip(expected) {
            assert!(line.starts_with(want), "{line:?} vs {want:?} in {trace:#?}");
        }
    }

    /// Run `session` to the end with `staged` controls, returning one line
    /// per applied control (`[control +N] ...`, as `run_to_end` logs it)
    /// and per alert (`alert QUERY @TS`), in the order they happened.
    fn run_traced(session: &mut RunSession<'_>, staged: Vec<(u64, Control)>) -> Vec<String> {
        let trace = std::cell::RefCell::new(Vec::new());
        let mut deliver = |batch: Vec<saql_engine::Alert>| {
            let lines = batch
                .iter()
                .map(|a| format!("alert {} @{}", a.query, a.ts.as_millis()));
            trace.borrow_mut().extend(lines);
        };
        let mut applied = |pos, reply: ControlReply| {
            let line = format!("[control +{pos}] {}", render_control(&reply));
            trace.borrow_mut().push(line);
        };
        session
            .run_staged(staged, &mut deliver, &mut applied)
            .unwrap();
        trace.into_inner()
    }

    #[test]
    fn staged_ops_fail_on_unknown_query_name() {
        let flags = Flags::parse(&argv(&["--pause-at", "0:ghost"])).unwrap();
        let mut engine = Engine::new(EngineConfig::default());
        let mut session = engine.session();
        session.attach(saql_stream::source::IterSource::new("none", Vec::new()));
        assert!(run_to_end(&mut session, staged(&flags).unwrap()).is_err());
    }

    #[test]
    fn word_and_json_forms_parse_to_the_same_control() {
        let file = query_file("words", "proc p start proc q as e\nreturn \"p\", q");
        let text = std::fs::read_to_string(&file).unwrap();
        let names = ["q", "exfil-2", "a.s1", "quote\"d", "back\\slash"];
        let mut seed = 0x2545_f491_u64;
        for _ in 0..200 {
            seed = seed.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(1);
            let name = names[(seed >> 33) as usize % names.len()];
            let cmd = [
                "register",
                "deregister",
                "undeploy",
                "pause",
                "resume",
                "list",
                "checkpoint",
            ][(seed >> 45) as usize % 7];
            let words: Vec<String> = match cmd {
                "register" => argv(&[cmd, name, &file.display().to_string()]),
                "list" | "checkpoint" => argv(&[cmd]),
                _ => argv(&[cmd, name]),
            };
            let word_refs: Vec<&str> = words.iter().map(String::as_str).collect();
            let from_words = parse_words(&word_refs).unwrap().unwrap();
            let json_cmd = if cmd == "undeploy" { "deregister" } else { cmd };
            let mut json = saql_serve::protocol::JsonObj::new().str("cmd", json_cmd);
            if words.len() > 1 {
                json = json.str("name", name);
            }
            if cmd == "register" {
                json = json.str("query", &text);
            }
            let from_json = saql_serve::protocol::parse_control(&json.finish()).unwrap();
            assert_eq!(from_json, Request::Control(from_words.clone()), "{words:?}");
            let sent = saql_serve::protocol::parse_control(&ctl_line(&words).unwrap()).unwrap();
            assert_eq!(sent, Request::Control(from_words), "{words:?}");
        }
        std::fs::remove_file(file).unwrap();
    }

    #[test]
    fn repl_lifecycle_commands_round_trip() {
        let mut input = Cursor::new(
            "deploy-demo\npause c2-malware-infection\nlist\nresume c2-malware-infection\nundeploy c2-malware-infection\nlist\npause ghost\nquit\n",
        );
        let mut out = Vec::new();
        let code = repl(&[], &mut input, &mut out).unwrap();
        assert_eq!(code, 0);
        let shown = String::from_utf8(out).unwrap();
        assert!(shown.contains("paused `c2-malware-infection`"), "{shown}");
        assert!(shown.contains("c2-malware-infection [paused]"), "{shown}");
        assert!(shown.contains("resumed `c2-malware-infection`"), "{shown}");
        assert!(
            shown.contains("deregistered `c2-malware-infection`"),
            "{shown}"
        );
        assert!(shown.contains("no live query `ghost`"), "{shown}");
        // After undeploy the second `list` no longer shows the query.
        let after = shown.split("deregistered").nth(1).unwrap();
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
        repl(&[], &mut input, &mut out).unwrap();
        let shown = String::from_utf8(out).unwrap();
        assert!(shown.contains("registered `query-1`"), "{shown}");
        assert!(shown.contains("registered `query-2`"), "{shown}");
        assert!(shown.contains("deregistered `query-1`"), "{shown}");
        assert!(shown.contains("registered `query-3`"), "{shown}");
        assert!(!shown.contains("already registered"), "{shown}");
    }

    /// Per-host write bursts that [`TIERED`]'s two stages both alert on.
    const TIERED: &str = "proc p write ip i as evt #time(10 s)\n\
                          state ss { writes := count() } group by evt.agentid\n\
                          alert ss[0].writes >= 3\n\
                          return evt.agentid as host, ss[0].writes as amount\n\
                          |>\n\
                          from #time(30 s)\n\
                          state es { hosts := distinct_count(_in.agentid) }\n\
                          alert es[0].hosts >= 2\n\
                          return es[0].hosts as hosts";

    /// 300 network writes, round-robin over three hosts, 700 ms apart.
    fn writes() -> Vec<saql_model::Event> {
        use saql_model::event::EventBuilder;
        use saql_model::{NetworkInfo, ProcessInfo};
        (0..300u64)
            .map(|i| {
                EventBuilder::new(i + 1, format!("web-{}", i % 3), 1_000 + i * 700)
                    .subject(ProcessInfo::new(100, "worker", "svc"))
                    .sends(NetworkInfo::new("10.0.0.1", 9999, "172.16.0.9", 443, "tcp"))
                    .amount(1024)
                    .build()
            })
            .collect()
    }

    #[test]
    fn repl_registers_runs_and_undeploys_a_pipeline() {
        // The demo's tiered pipeline registers both stages...
        let mut input = Cursor::new(format!(
            "{}\nlist\nundeploy query-1\nlist\nquit\n",
            corpus::DEMO_TIERED_PIPELINE
        ));
        let mut out = Vec::new();
        repl(&[], &mut input, &mut out).unwrap();
        let shown = String::from_utf8(out).unwrap();
        assert!(
            shown.contains("registered pipeline `query-1` (2 stages: query-1.s1 |> query-1)"),
            "{shown}"
        );
        let (deployed, undeployed) = shown.split_once("deregistered").unwrap();
        assert!(deployed.contains("  query-1.s1\n"), "{shown}");
        assert!(deployed.contains("  query-1\n"), "{shown}");
        assert!(
            undeployed.starts_with(" `query-1`, `query-1.s1`"),
            "{shown}"
        );
        assert!(undeployed.contains("no live queries"), "{shown}");

        // ...and `run` wires the stages: the final stage alerts too.
        let path = std::env::temp_dir().join(format!("saql-cli-repl-pipe-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        let mut store = StoreWriter::create_segmented(&path).unwrap();
        store.append(&writes()).unwrap();
        store.sync().unwrap();
        drop(store);
        let mut input = Cursor::new(format!("{TIERED}\n\nrun\nquit\n"));
        let mut out = Vec::new();
        repl(
            &argv(&["--store", path.to_str().unwrap()]),
            &mut input,
            &mut out,
        )
        .unwrap();
        let shown = String::from_utf8(out).unwrap();
        assert!(shown.contains("[ALERT query-1.s1 @"), "{shown}");
        assert!(shown.contains("[ALERT query-1 @"), "{shown}");
        std::fs::remove_dir_all(path).unwrap();
    }

    #[test]
    fn repl_run_without_store_explains() {
        let mut input = Cursor::new("run\nquit\n");
        let mut out = Vec::new();
        repl(&[], &mut input, &mut out).unwrap();
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
        let argv = argv(&["--store", path.to_str().unwrap()]);
        let code = repl(&argv, &mut input, &mut out).unwrap();
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
        let events: Vec<_> = writes().into_iter().map(std::sync::Arc::new).collect();
        let mut engine = Engine::new(EngineConfig::default());
        saql_engine::register_pipeline(&mut engine, "tiered", TIERED).unwrap();
        engine
            .register("q", "proc p write ip i as evt\nreturn p, i")
            .unwrap();
        let flags = Flags::parse(&argv(&["--pause-at", "100:q", "--resume-at", "200:q"])).unwrap();
        let mut session = engine.session();
        session.attach(saql_stream::source::IterSource::new("trace", events));
        let trace = run_traced(&mut session, staged(&flags).unwrap());
        assert!(session.processed() > 300, "the pipeline derived events");
        drop(session);
        let controls: Vec<&str> = trace
            .iter()
            .filter(|line| line.starts_with("[control"))
            .map(|line| line.split(" (").next().unwrap())
            .collect();
        assert_eq!(
            controls,
            ["[control +100] paused `q`", "[control +200] resumed `q`"]
        );
        // `q` saw exactly the first 100 writes and the last 100.
        let seen: Vec<String> = trace
            .iter()
            .filter_map(|line| line.strip_prefix("alert q @"))
            .map(String::from)
            .collect();
        let expected: Vec<String> = (0..100u64)
            .chain(200..300)
            .map(|i| (1_000 + i * 700).to_string())
            .collect();
        assert_eq!(seen, expected);
        let stats = engine.query_stats();
        let (_, q) = stats.iter().find(|(name, _)| name == "q").unwrap();
        assert_eq!(q.events_seen, 200);
    }
}
