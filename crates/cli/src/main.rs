//! `saql` — the command-line UI of the SAQL system (paper Fig. 3).
//!
//! Subcommands:
//!
//! * `saql demo` — run the full APT demonstration: simulate the enterprise,
//!   deploy the 8 demo queries, stream the trace, print alerts live;
//! * `saql simulate --out DIR [...]` — generate a trace into an event store;
//! * `saql replay --store DIR [...]` — replay a stored trace (host and
//!   time-range selection, optional compression) through deployed queries;
//! * `saql check FILE...` — parse + semantically check query files, printing
//!   canonical form or spanned errors;
//! * `saql explain FILE...` — print the compiled execution plan (resolved
//!   slots, predicate sets, register-program listings) of query files;
//! * `saql repl [--store DIR]` — interactive session: type a query (blank
//!   line to finish), `run` to stream the store through deployed queries;
//!   lifecycle words are the `saql client ctl` ones.

mod args;
mod commands;

fn main() {
    // `saql ... | head` ends quietly when `head` exits, like any filter.
    saql_serve::restore_default_sigpipe();
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let code = run(&argv);
    std::process::exit(code);
}

fn run(argv: &[String]) -> i32 {
    let result = match argv.first().map(String::as_str) {
        Some("demo") => commands::demo(&argv[1..]),
        Some("simulate") => commands::simulate(&argv[1..]),
        Some("replay") => commands::replay(&argv[1..]),
        Some("export") => commands::export(&argv[1..]),
        Some("serve") => commands::serve(&argv[1..]),
        Some("client") => commands::client(&argv[1..]),
        Some("check") => commands::check(&argv[1..]),
        Some("explain") => commands::explain(&argv[1..]),
        Some("repl") => {
            let stdin = std::io::stdin();
            let mut out = std::io::stdout();
            commands::repl(&argv[1..], &mut stdin.lock(), &mut out)
        }
        Some("help") | Some("--help") | Some("-h") | None => {
            print!("{}", USAGE);
            Ok(0)
        }
        Some(other) => {
            eprintln!("unknown command `{other}`\n\n{USAGE}");
            Ok(2)
        }
    };
    // Every command error is a usage or input error: exit 2.
    result.unwrap_or_else(|e| {
        eprintln!("error: {e}");
        2
    })
}

const USAGE: &str = "\
SAQL — stream-based anomaly query system over system monitoring data

USAGE:
    saql demo       [--clients N] [--minutes M] [--seed S] [--workers W]
                    [--pipeline] [LIFECYCLE]...
    saql simulate   --out DIR [--clients N] [--minutes M] [--seed S] [--no-attack]
    saql replay     [--store DIR] [--source KIND:...]... [--follow]
                    [--host H]... [--from MS] [--until MS] [--lateness MS]
                    [--speed FACTOR|max] [--demo-queries] [--query FILE]...
                    [--workers W] [--checkpoint-dir DIR] [--checkpoint-every N]
                    [--resume] [LIFECYCLE]...
    saql export     --store DIR [--out FILE|-] [--host H]... [--from MS] [--until MS]
    saql serve      [--listen ADDR] [--query FILE]... [--demo-queries] [--workers W]
                    [--lateness MS] [--ingest-buffer N] [--store PATH]
                    [--checkpoint-dir DIR] [--checkpoint-every N] [--resume]
                    [--max-queries N] [--events-per-sec N] [--burst N]
                    [--tenant-quota T:EPS[:BURST]]... [--grace MS] [--quiet]
    saql client     ingest [--addr A] [--tenant T] [--source NAME] [--file F|-]
                           [--lossless] [--arrival]
    saql client     tail   [--addr A] [--tenant T] --query NAME [--max N]
    saql client     ctl    [--addr A] [--tenant T] CMD [NAME] [FILE]
    saql check      FILE...
    saql explain    FILE...
    saql repl       [--store DIR]
    saql help

`explain` prints the compiled execution plan of each query: resolved slot
tables, attribute predicates bound to ids, and the register-program
listing for every expression (state fields, invariants, cluster points,
alert, return).

`--workers W` runs queries on the parallel sharded runtime with W worker
threads (default 0 = serial execution on one thread).

SOURCES (repeatable; all feeds are fused by a watermarked K-way merge into
one event-time-ordered stream, so `replay` ingests any mix of):
    --store DIR                  one store, sorted by its verified floor,
                                 paced by --speed
    --source store:DIR           stream a store selection record by record
                                 (with --follow: sorted and paced as --store)
    --source jsonl:FILE|-        JSON-lines events from a file or stdin
                                 (the format `saql export` writes)
    --source sim:K=V,...         a generated trace, live
                                 (seed=, clients=, minutes=, no-attack)
Events out of order beyond `--lateness MS` (default 1000) of trace time
are dropped and counted per source; a source that fails mid-stream
(corrupt record, read error) finishes the run on partial data, warns on
stderr, and exits 1.

DURABILITY (a store is a directory of sealed segment files plus a
write-ahead log; `simulate --out DIR` and `serve --store DIR` write one,
every `--store` / `store:` input reads one):
    --checkpoint-dir DIR         replay: checkpoint engine state into DIR
    --checkpoint-every N         checkpoint cadence in events (default 4096)
    --resume                     replay: restore from DIR's checkpoint and
                                 continue from its exact stream offset
Checkpointed runs take exactly one --store input, streamed in stored
order — the order checkpoint offsets count, so `--lateness` does not
apply to it and no stored event is dropped as late; a resumed run
re-emits the same alerts the uninterrupted run would have produced from
the checkpoint on. A checkpoint past the end of the store is refused.
`--resume` restores the checkpointed query set: `replay --resume` and
`serve --resume` both refuse --query / --demo-queries.

SERVING (`saql serve` keeps the engine resident behind a TCP line protocol;
`saql client` is the matching thin client):
    Connections speak newline-delimited JSON and open with a hello line
    declaring a role — ingest (push JSONL events; `--lossless` blocks the
    connection instead of shedding on a full buffer, `--arrival` trusts
    connection order), control (register/deregister/pause/resume/list/
    stats/checkpoint/shutdown; query names are namespaced per tenant), or
    subscribe (stream a query's alerts as JSONL). A first line starting
    with `GET ` returns the metrics page (curl works), read from the live
    session on request: engine position, per-source lag, per-query
    throughput, per-tenant ingest counts and delivery-latency histograms.
    Per-tenant quotas (`--max-queries`, `--events-per-sec`/`--burst`, or
    per-tenant `--tenant-quota`) shed over-rate events — counted, never
    blocking the engine. With `--store` every accepted event is appended
    and fsynced to a durable store before the engine consumes it; with
    `--checkpoint-dir` the server checkpoints on cadence and writes one
    final checkpoint on graceful shutdown (SIGTERM/SIGINT or the
    `shutdown` control command), so `saql serve --resume` restores the
    engine and continues at the exact acknowledged offset.

    saql serve --demo-queries --store /tmp/events.d --checkpoint-dir /tmp/ck
    saql client ingest --addr 127.0.0.1:7878 --file trace.jsonl --lossless
    saql client tail --query c5-exfiltration --max 10
    saql client ctl register exfil my-query.saql
    saql client ctl stats

PIPELINES (multi-stage queries — alerts as an event stream):
    A query file may chain stages with `|>`: each downstream stage reads
    its upstream's *alert stream* as `_in` instead of raw events (e.g.
    per-host burst summaries feeding one enterprise-wide correlation).
    A stage can also name its input explicitly with `from query NAME`.
    Everywhere a query is accepted (`replay --query`, `serve --query`,
    `client ctl register`, `--register-at`, `repl`), a multi-stage text
    registers every stage under its name (a file's stem, the repl's
    `query-N`): `NAME.s1`, `NAME.s2`, ..., the final stage as `NAME` — each
    alerting independently (tail `NAME.s1` to watch the intermediate stream).
    Cyclic or dangling `from query` references are rejected at
    registration with spanned errors. `saql explain` prints the topology
    (stage DAG) followed by each stage's compiled plan; `saql check`
    validates all stages. Checkpoints capture the whole topology — every
    round hands its alerts to their stages before it ends, and adapter
    positions travel in the checkpoint — so `--resume` rewires every stage
    and replays exactly. `saql demo --pipeline` deploys a tiered two-stage
    detection alongside the demo queries.

REPL (`saql repl [--store DIR]`): a query ended by a blank line deploys as
`query-N`; `undeploy` spells `deregister`, the rest are `client ctl`'s words:
    deploy-demo | register NAME FILE | list | show NAME | undeploy NAME |
    pause NAME | resume NAME | run | stats | errors | quit

LIFECYCLE (repeatable; staged query control-plane operations, applied live
mid-stream once N events have been processed — on both backends):
    --register-at N:NAME=FILE    attach the query in FILE as NAME
    --deregister-at N:NAME       detach NAME (flushes its open windows)
    --pause-at N:NAME            freeze NAME (sees no events until resumed)
    --resume-at N:NAME           re-attach a paused NAME

EXAMPLES:
    saql demo --clients 8 --minutes 60
    saql demo --workers 4
    saql demo --register-at 5000:exfil=my-query.saql --deregister-at 20000:exfil
    saql simulate --out /tmp/trace.d --minutes 45
    saql replay --store /tmp/trace.d --host db-server --demo-queries
    saql replay --source store:/tmp/a.d --source jsonl:/tmp/b.jsonl --demo-queries
    saql replay --source store:/tmp/trace.d --follow --speed 60 --demo-queries
    saql export --store /tmp/trace.d --out /tmp/trace.jsonl
    saql replay --store /tmp/trace.d --demo-queries --checkpoint-dir /tmp/ckpt
    saql replay --store /tmp/trace.d --checkpoint-dir /tmp/ckpt --resume
    saql demo --pipeline
    saql replay --store /tmp/trace.d --query tiered.saql --checkpoint-dir /tmp/ck
    saql explain tiered.saql
    saql check my-query.saql
";
