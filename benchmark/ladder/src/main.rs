//! `saql-ladder`: push the first N events of one seed's stream, in chunks,
//! through each layer's public function in turn and report what each layer
//! costs per event. A span is recorded around every call into a layer
//! (name, start, end, parent, chunk); a layer's time is its spans minus
//! their children. Spans stay in memory and are written out at exit.
//!
//! Nothing inside the program is instrumented: engine sub-layers are told
//! apart from outside, by registering query subsets.

mod seams;

use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use saql_benchmark::{gen, many, stats};
use seams::*;

/// Events per chunk: every span covers one chunk passing one layer.
const CHUNK: usize = 4096;

struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    chunk: u64,
}

struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn begin(&mut self, name: &'static str, parent: Option<usize>, chunk: u64) -> usize {
        let start_ns = self.now();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent,
            chunk,
        });
        self.spans.len() - 1
    }

    fn end(&mut self, id: usize) {
        self.spans[id].end_ns = self.now();
    }

    /// Run `f` inside a span.
    fn span<T>(
        &mut self,
        name: &'static str,
        parent: Option<usize>,
        chunk: u64,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.begin(name, parent, chunk);
        let out = f();
        self.end(id);
        out
    }

    /// Total self time of the spans called `name`: their durations minus
    /// the durations of their direct children.
    fn self_ns(&self, name: &str) -> u64 {
        let mut total: i128 = 0;
        for (id, span) in self.spans.iter().enumerate() {
            if span.name == name {
                total += i128::from(span.end_ns - span.start_ns);
                for child in self.spans.iter().filter(|c| c.parent == Some(id)) {
                    total -= i128::from(child.end_ns - child.start_ns);
                }
            }
        }
        total.max(0) as u64
    }

    fn write(&self, path: &Path) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"chunk\":{}}}",
                s.name, s.start_ns, s.end_ns, s.chunk
            )?;
        }
        out.flush()
    }
}

fn metric(name: &str, value: f64) {
    println!("metric {name} {value}");
}

fn flag<'a>(args: &'a [String], name: &str) -> Result<&'a str, String> {
    args.iter()
        .position(|a| a == name)
        .and_then(|at| args.get(at + 1))
        .map(String::as_str)
        .ok_or_else(|| format!("missing {name}"))
}

fn read_query(dir: &Path, name: &str) -> Result<String, String> {
    let path = dir.join("family").join(format!("{name}.saql"));
    std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))
}

/// How an engine is configured in the program: `saql replay` takes the
/// defaults; `saql serve` turns latency recording on, which makes the
/// serial scheduler run event-at-a-time instead of batch-at-a-time.
#[derive(Clone, Copy, PartialEq)]
enum As {
    Replay,
    Serve,
    /// The parallel runtime with two workers.
    TwoWorkers,
}

fn engine_with(queries: &[(String, String)], run_as: As) -> Result<Engine, String> {
    let mut engine = Engine::new(EngineConfig {
        workers: if run_as == As::TwoWorkers { 2 } else { 0 },
        record_latency: run_as == As::Serve,
        ..EngineConfig::default()
    });
    for (name, text) in queries {
        engine
            .register(name, text)
            .map_err(|e| format!("{name}: {}", e.render(text)))?;
    }
    Ok(engine)
}

/// What one pass of the events through an engine produced.
struct Pass {
    alerts: Vec<Alert>,
    engine: Engine,
}

/// Feed `batches` to an engine holding `queries`, one span per chunk.
fn scheduler_pass(
    tracer: &mut Tracer,
    span_name: &'static str,
    queries: &[(String, String)],
    run_as: As,
    batches: &[EventBatch],
) -> Result<Pass, String> {
    let mut engine = engine_with(queries, run_as)?;
    let mut alerts = Vec::new();
    let per_chunk = (CHUNK / engine.batch_size()).max(1);
    for (chunk, group) in batches.chunks(per_chunk).enumerate() {
        let fresh = tracer.span(span_name, None, chunk as u64, || feed(&mut engine, group));
        alerts.extend(fresh?);
    }
    let id = tracer.begin(span_name, None, batches.len().div_ceil(per_chunk) as u64);
    alerts.extend(engine.finish());
    tracer.end(id);
    Ok(Pass { alerts, engine })
}

/// One chunk through the engine, in batches of the engine's own size — the
/// size the session pump feeds it in the program.
fn feed(engine: &mut Engine, batches: &[EventBatch]) -> Result<Vec<Alert>, String> {
    let mut alerts = Vec::new();
    for batch in batches {
        alerts.extend(engine.process_batch(batch).map_err(|e| e.to_string())?);
    }
    Ok(alerts)
}

fn per_event(ns: u64, events: usize) -> f64 {
    ns as f64 / events.max(1) as f64
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let Err(e) = run(&args) {
        eprintln!("saql-ladder: {e}");
        std::process::exit(2);
    }
}

fn run(args: &[String]) -> Result<(), String> {
    let seed: u64 = flag(args, "--seed")?
        .parse()
        .map_err(|_| "--seed expects a number")?;
    let n: usize = flag(args, "--events")?
        .parse()
        .map_err(|_| "--events expects a number")?;
    let queries = PathBuf::from(flag(args, "--queries")?);
    let spans_path = PathBuf::from(flag(args, "--spans")?);
    let scratch =
        PathBuf::from(flag(args, "--scratch")?).join(format!("tmp-{}-ladder", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);
    std::fs::create_dir_all(&scratch).map_err(|e| format!("{}: {e}", scratch.display()))?;
    let outcome = ladder(seed, n, &queries, &spans_path, &scratch);
    let _ = std::fs::remove_dir_all(&scratch);
    outcome
}

fn ladder(
    seed: u64,
    n: usize,
    queries: &Path,
    spans_path: &Path,
    scratch: &Path,
) -> Result<(), String> {
    let mut tracer = Tracer {
        epoch: Instant::now(),
        spans: Vec::new(),
    };
    let (bytes, _) = gen::generate(seed, n as u64);
    let text = std::str::from_utf8(&bytes).map_err(|e| e.to_string())?;
    let family: Vec<(String, String)> = [
        "rule-1step",
        "rule-2step",
        "rule-4step",
        "ts-sma",
        "invariant",
        "outlier",
        "hicard",
    ]
    .iter()
    .map(|name| Ok((name.to_string(), read_query(queries, name)?)))
    .collect::<Result<_, String>>()?;
    let pipeline_text = read_query(queries, "pipeline")?;

    // ---- the ladder proper: every chunk climbs lines → decode → batch →
    // durable append+sync → scheduler (Q-family) → alert rendering.
    let store_dir = scratch.join("store");
    let mut writer = StoreWriter::create_segmented(&store_dir).map_err(|e| e.to_string())?;
    let mut engine = engine_with(&family, As::Replay)?;
    let pipeline_stages = register_pipeline(&mut engine, "pipeline", &pipeline_text)
        .map_err(|e| format!("pipeline: {}", e.render(&pipeline_text)))?
        .len();
    let batch_size = engine.batch_size();
    let mut events: Vec<SharedEvent> = Vec::with_capacity(n);
    let mut batches: Vec<EventBatch> = Vec::new();
    let mut fsync_ms = Vec::new();
    let mut rendered = 0usize;
    let mut rendered_bytes = 0usize;
    let all_lines: Vec<&str> = text.lines().collect();
    for (chunk, lines) in all_lines.chunks(CHUNK).enumerate() {
        let chunk = chunk as u64;
        let root = tracer.begin("chunk", None, chunk);
        let decoded: Vec<Event> = tracer
            .span("model.json.decode", Some(root), chunk, || {
                lines
                    .iter()
                    .map(|l| decode_event_json(l))
                    .collect::<Result<_, _>>()
            })
            .map_err(|e| e.to_string())?;
        let id = tracer.begin("stream.durable.append_sync", Some(root), chunk);
        writer.append(&decoded).map_err(|e| e.to_string())?;
        let sync_began = tracer.now();
        writer.sync().map_err(|e| e.to_string())?;
        fsync_ms.push((tracer.now() - sync_began) as f64 / 1e6);
        tracer.end(id);
        let shared: Vec<SharedEvent> = decoded.into_iter().map(Arc::new).collect();
        events.extend(shared.iter().cloned());
        let built: Vec<EventBatch> = tracer.span("stream.batch.build", Some(root), chunk, || {
            shared
                .chunks(batch_size)
                .map(|part| {
                    let batch = EventBatch::from_events(part.to_vec());
                    // the scalar columns every batched operator starts from
                    std::hint::black_box(BatchView::new(&batch).len());
                    batch
                })
                .collect()
        });
        let alerts = tracer.span("engine.scheduler.family", Some(root), chunk, || {
            feed(&mut engine, &built)
        })?;
        tracer.span("engine.alert.render", Some(root), chunk, || {
            for alert in &alerts {
                rendered_bytes += std::hint::black_box(render_alert_json(alert)).len();
            }
        });
        rendered += alerts.len();
        batches.extend(built);
        tracer.end(root);
    }
    writer
        .seal()
        .and_then(|_| writer.sync())
        .map_err(|e| e.to_string())?;
    drop(writer);
    let family_stats = engine.scheduler_stats();
    let windows_closed: u64 = engine
        .query_stats()
        .iter()
        .map(|(_, s)| s.windows_closed)
        .sum();

    metric(
        "model.json.decode_ns",
        per_event(tracer.self_ns("model.json.decode"), n),
    );
    metric("model.json.bytes_per_ev", bytes.len() as f64 / n as f64);
    metric(
        "stream.batch.build_ns",
        per_event(tracer.self_ns("stream.batch.build"), n),
    );
    metric(
        "stream.durable.append_sync_ns",
        per_event(tracer.self_ns("stream.durable.append_sync"), n),
    );
    metric(
        "stream.durable.fsync_ms_p50",
        stats::median(&fsync_ms).unwrap_or(0.0),
    );
    let stored: u64 = std::fs::read_dir(&store_dir)
        .map_err(|e| e.to_string())?
        .filter_map(|e| e.ok()?.metadata().ok())
        .map(|m| m.len())
        .sum();
    metric("stream.durable.bytes_per_ev", stored as f64 / n as f64);
    metric(
        "engine.scheduler.family_ns",
        per_event(tracer.self_ns("engine.scheduler.family"), n),
    );
    metric(
        "engine.scheduler.family.master_checks_per_ev",
        family_stats.master_checks as f64 / family_stats.events.max(1) as f64,
    );
    metric(
        "engine.scheduler.family.deliveries_per_ev",
        family_stats.deliveries as f64 / family_stats.events.max(1) as f64,
    );
    metric("engine.window.closed", windows_closed as f64);
    metric(
        "engine.alert.render_ns",
        per_event(tracer.self_ns("engine.alert.render"), rendered),
    );
    eprintln!("ladder: {n} events, {rendered} alerts rendered ({rendered_bytes} B), pipeline stages {pipeline_stages}");

    // ---- checkpoint of the Q-family state the ladder just built
    let ckpt_dir = scratch.join("ckpt");
    let began = Instant::now();
    let ckpt = engine
        .checkpoint(
            n as u64,
            Timestamp::from_millis(gen::ts_of_index(n as u64 - 1)),
        )
        .map_err(|e| e.to_string())?;
    let path = ckpt.write_atomic(&ckpt_dir).map_err(|e| e.to_string())?;
    metric(
        "engine.checkpoint.write_ms",
        began.elapsed().as_secs_f64() * 1e3,
    );
    metric(
        "engine.checkpoint.bytes",
        std::fs::metadata(&path).map_or(0, |m| m.len()) as f64,
    );
    let began = Instant::now();
    let loaded = Checkpoint::load(&path).map_err(|e| e.to_string())?;
    let resumed =
        Engine::resume_from(loaded, EngineConfig::default()).map_err(|e| e.to_string())?;
    metric(
        "engine.checkpoint.restore_ms",
        began.elapsed().as_secs_f64() * 1e3,
    );
    drop(resumed);
    drop(engine);

    // ---- model.codec and the durable read path
    let plain: Vec<Event> = events.iter().map(|e| Event::clone(e)).collect();
    let mut encoded_bytes = 0usize;
    for (chunk, part) in plain.chunks(CHUNK).enumerate() {
        let data = tracer.span("model.codec.encode", None, chunk as u64, || {
            encode_batch(part)
        });
        encoded_bytes += data.len();
        let back = tracer
            .span("model.codec.decode", None, chunk as u64, || {
                decode_batch(data)
            })
            .map_err(|e| format!("codec: {e:?}"))?;
        std::hint::black_box(back.len());
    }
    drop(plain);
    metric(
        "model.codec.encode_ns",
        per_event(tracer.self_ns("model.codec.encode"), n),
    );
    metric(
        "model.codec.decode_ns",
        per_event(tracer.self_ns("model.codec.decode"), n),
    );
    metric("model.codec.bytes_per_ev", encoded_bytes as f64 / n as f64);
    let reader = StoreReader::open(&store_dir).map_err(|e| e.to_string())?;
    let mut iter = reader.iter_from(0).map_err(|e| e.to_string())?;
    let mut read = 0usize;
    let mut chunk = 0u64;
    loop {
        let got = tracer.span("stream.durable.read", None, chunk, || {
            iter.by_ref().take(CHUNK).count()
        });
        read += got;
        chunk += 1;
        if got < CHUNK {
            break;
        }
    }
    if read != n {
        return Err(format!("store read back {read} of {n} events"));
    }
    metric(
        "stream.durable.read_ns",
        per_event(tracer.self_ns("stream.durable.read"), n),
    );

    // ---- stream.merge: one ordered source, then eight (split by host)
    let mut dropped_late = 0u64;
    for (name, k) in [("stream.merge.k1", 1usize), ("stream.merge.k8", 8)] {
        let mut merge = WatermarkMerge::new(MergeConfig::default());
        for s in 0..k {
            let feed: Vec<SharedEvent> = events.iter().skip(s).step_by(k).cloned().collect();
            merge.attach(Box::new(IterSource::new(format!("feed-{s}"), feed)));
        }
        let mut out = Vec::with_capacity(CHUNK);
        let mut released = 0usize;
        let mut chunk = 0u64;
        loop {
            out.clear();
            let status = tracer.span(name, None, chunk, || merge.poll(&mut out, CHUNK));
            released += out.len();
            chunk += 1;
            if status == MergeStatus::Done {
                break;
            }
        }
        dropped_late += merge
            .source_stats()
            .iter()
            .map(|(_, s)| s.dropped_late)
            .sum::<u64>();
        if released + dropped_late as usize != n {
            return Err(format!("{name} released {released} of {n} events"));
        }
        metric(&format!("{name}_ns"), per_event(tracer.self_ns(name), n));
    }
    metric("stream.merge.dropped_late", dropped_late as f64);

    // ---- engine sub-layers, told apart by the query subset registered
    {
        // zero queries: what the session pump costs by itself
        let mut engine = engine_with(&[], As::Replay)?;
        let mut session = engine.session();
        session.attach_with(
            IterSource::new("all", events.clone()),
            Lateness::ArrivalOrder,
        );
        pump_to_done(&mut tracer, "engine.session.pump", &mut session, None)?;
    }
    metric(
        "engine.session.pump_ns",
        per_event(tracer.self_ns("engine.session.pump"), n),
    );
    let subset = |names: &[&str]| -> Vec<(String, String)> {
        family
            .iter()
            .filter(|(name, _)| names.contains(&name.as_str()))
            .cloned()
            .collect()
    };
    for (span, metric_name, names) in [
        (
            "engine.matcher.rule",
            "engine.matcher.rule_ns",
            &["rule-1step", "rule-2step", "rule-4step"][..],
        ),
        ("engine.state.ts", "engine.state.ts_ns", &["ts-sma"][..]),
        (
            "engine.state.hicard",
            "engine.state.hicard_ns",
            &["hicard"][..],
        ),
        (
            "engine.invariant",
            "engine.invariant.ns",
            &["invariant"][..],
        ),
        (
            "engine.cluster.outlier",
            "engine.cluster.outlier_ns",
            &["outlier"][..],
        ),
    ] {
        scheduler_pass(&mut tracer, span, &subset(names), As::Replay, &batches)?;
        metric(metric_name, per_event(tracer.self_ns(span), n));
    }
    {
        // live groups of the high-cardinality query, counted from outside:
        // the same query alerting on every group, most alerts in one window
        let every_group =
            read_query(queries, "hicard")?.replace("alert ss.amt > 20000000", "alert ss.amt > 0");
        let pass = scheduler_pass(
            &mut tracer,
            "engine.state.groups",
            &[("hicard-all".into(), every_group)],
            As::Replay,
            &batches,
        )?;
        let mut per_window = std::collections::BTreeMap::new();
        for alert in &pass.alerts {
            *per_window.entry(alert.ts).or_insert(0u64) += 1;
        }
        metric(
            "engine.state.groups_live",
            per_window.values().copied().max().unwrap_or(0) as f64,
        );
    }
    {
        let mut engine = engine_with(&[], As::Replay)?;
        register_pipeline(&mut engine, "pipeline", &pipeline_text)
            .map_err(|e| e.render(&pipeline_text))?;
        let mut session = engine.session();
        session.attach_with(
            IterSource::new("all", events.clone()),
            Lateness::ArrivalOrder,
        );
        let mut wiring = PipelineWiring::connect(&mut session).map_err(|e| e.to_string())?;
        pump_to_done(
            &mut tracer,
            "engine.pipeline.two_stage",
            &mut session,
            Some(&mut wiring),
        )?;
    }
    metric(
        "engine.pipeline.two_stage_ns",
        per_event(tracer.self_ns("engine.pipeline.two_stage"), n),
    );

    // ---- Q-many on half the events: compile cost, dispatch cost, and the
    // same queries on two workers
    let rendered_many = many::render(seed);
    let many_queries: Vec<(String, String)> = rendered_many
        .iter()
        .map(|(tenant, name, text)| (format!("{tenant}/{name}"), text.clone()))
        .collect();
    let mut compile_us = Vec::with_capacity(many_queries.len());
    {
        let mut engine = engine_with(&[], As::Replay)?;
        for (name, text) in &many_queries {
            let began = Instant::now();
            engine
                .register(name, text)
                .map_err(|e| format!("{name}: {}", e.render(text)))?;
            compile_us.push(began.elapsed().as_secs_f64() * 1e6);
        }
    }
    metric("lang.compile_us", stats::median(&compile_us).unwrap_or(0.0));
    // Q-family as `saql serve` runs it (the ladder above ran it as replay does)
    let mut all_family = family.clone();
    all_family.push((
        "pipeline.s1".into(),
        pipeline_text
            .split("|>")
            .next()
            .unwrap_or_default()
            .to_string(),
    ));
    scheduler_pass(
        &mut tracer,
        "engine.scheduler.family_serve",
        &all_family,
        As::Serve,
        &batches,
    )?;
    metric(
        "engine.scheduler.family_serve_ns",
        per_event(tracer.self_ns("engine.scheduler.family_serve"), n),
    );

    let half = &batches[..batches.len() / 2];
    let quarter = &batches[..batches.len() / 4];
    let count = |part: &[EventBatch]| part.iter().map(EventBatch::len).sum::<usize>();
    let served = scheduler_pass(
        &mut tracer,
        "engine.scheduler.many",
        &many_queries,
        As::Serve,
        half,
    )?;
    let many_stats = served.engine.scheduler_stats();
    metric(
        "engine.scheduler.many_ns",
        per_event(tracer.self_ns("engine.scheduler.many"), count(half)),
    );
    metric(
        "engine.scheduler.many.master_checks_per_ev",
        many_stats.master_checks as f64 / many_stats.events.max(1) as f64,
    );
    metric(
        "engine.scheduler.many.deliveries_per_ev",
        many_stats.deliveries as f64 / many_stats.events.max(1) as f64,
    );
    // useful deliveries: those a member query's own predicates then matched
    let matched: u64 = served
        .engine
        .query_stats()
        .iter()
        .map(|(_, s)| s.events_matched)
        .sum();
    metric(
        "engine.scheduler.many.delivery_ratio",
        matched as f64 / many_stats.deliveries.max(1) as f64,
    );
    drop(served);
    scheduler_pass(
        &mut tracer,
        "engine.scheduler.many_batched",
        &many_queries,
        As::Replay,
        quarter,
    )?;
    let batched_ns = tracer.self_ns("engine.scheduler.many_batched");
    metric(
        "engine.scheduler.many_batched_ns",
        per_event(batched_ns, count(quarter)),
    );
    scheduler_pass(
        &mut tracer,
        "engine.runtime.w2",
        &many_queries,
        As::TwoWorkers,
        quarter,
    )?;
    // throughput of two workers ÷ throughput of the serial batched scheduler
    metric(
        "engine.runtime.w2_ratio",
        batched_ns as f64 / tracer.self_ns("engine.runtime.w2").max(1) as f64,
    );

    tracer
        .write(spans_path)
        .map_err(|e| format!("{}: {e}", spans_path.display()))
}

/// Pump a session to the end of its stream in `CHUNK`-event rounds, one
/// span a round, moving pipeline alerts between stages when wired.
fn pump_to_done(
    tracer: &mut Tracer,
    span: &'static str,
    session: &mut RunSession<'_>,
    mut wiring: Option<&mut PipelineWiring>,
) -> Result<(), String> {
    let mut chunk = 0u64;
    loop {
        let id = tracer.begin(span, None, chunk);
        let moved = wiring.as_mut().map_or(0, |w| w.transfer(session));
        let round = session.pump_max(CHUNK);
        tracer.end(id);
        chunk += 1;
        match round.status {
            SessionStatus::Done => break,
            SessionStatus::Active => {}
            // a wired session never reports Done while the derived
            // channels are open: it is over once a round moved nothing
            SessionStatus::Idle if moved == 0 && round.events == 0 => break,
            SessionStatus::Idle => {}
        }
    }
    if let Some(wiring) = wiring {
        let id = tracer.begin(span, None, chunk);
        wiring.finish_stages(session);
        tracer.end(id);
    }
    Ok(())
}
