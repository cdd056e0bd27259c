//! End-to-end smoke tests driving the compiled `saql` binary: `saql help`,
//! `saql check` on corpus query files (OK and error paths), and the
//! hand-rolled flag parser's failure modes as seen from the command line.

use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::{Command, Output, Stdio};

fn saql(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_saql"))
        .args(args)
        .output()
        .expect("spawn saql binary")
}

fn temp_file(name: &str, contents: &str) -> PathBuf {
    let mut path = std::env::temp_dir();
    path.push(format!("saql-cli-smoke-{}-{name}", std::process::id()));
    std::fs::write(&path, contents).unwrap();
    path
}

#[test]
fn help_prints_usage_and_exits_zero() {
    for invocation in [&["help"][..], &["--help"], &["-h"], &[]] {
        let out = saql(invocation);
        assert!(out.status.success(), "saql {invocation:?} failed: {out:?}");
        let text = String::from_utf8(out.stdout).unwrap();
        assert!(text.contains("USAGE"), "no usage in: {text}");
        for cmd in ["demo", "simulate", "replay", "check", "repl"] {
            assert!(text.contains(cmd), "usage missing `{cmd}`");
        }
    }
}

#[test]
fn unknown_command_exits_two_with_usage_on_stderr() {
    let out = saql(&["frobnicate"]);
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("unknown command `frobnicate`"));
    assert!(err.contains("USAGE"));
}

#[test]
fn check_accepts_every_corpus_demo_query() {
    for (name, src) in saql_lang::corpus::DEMO_QUERIES {
        let path = temp_file(&format!("{name}.saql"), src);
        let out = saql(&["check", path.to_str().unwrap()]);
        let _ = std::fs::remove_file(&path);
        assert!(out.status.success(), "{name} rejected: {out:?}");
        let text = String::from_utf8(out.stdout).unwrap();
        assert!(text.contains(": OK ("), "{name}: no OK line in: {text}");
    }
}

#[test]
fn explain_prints_compiled_plan_for_query_files() {
    let path = temp_file(
        "explain.saql",
        "proc p write ip i as evt #time(10 min)\nstate[3] ss { avg_amount := avg(evt.amount) } group by p\nalert ss[0].avg_amount > 10000\nreturn p, ss[0].avg_amount",
    );
    let out = saql(&["explain", path.to_str().unwrap()]);
    let _ = std::fs::remove_file(&path);
    assert!(out.status.success(), "explain failed: {out:?}");
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("kind: time-series"), "{text}");
    assert!(text.contains("entity[0] = p: proc"), "{text}");
    assert!(text.contains("group_key[0:p]"), "{text}");
    assert!(text.contains("state[0].0:avg_amount"), "{text}");
    assert!(text.contains("const 10000"), "{text}");
}

#[test]
fn explain_rejects_broken_queries_and_missing_args() {
    let path = temp_file("explain-broken.saql", "proc p1 [ oops\nreturn");
    let out = saql(&["explain", path.to_str().unwrap()]);
    let _ = std::fs::remove_file(&path);
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("error"), "no rendered error in: {err}");
    let out = saql(&["explain"]);
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("at least one query file"), "{err}");
}

#[test]
fn check_reports_spanned_error_and_exits_one() {
    let path = temp_file("broken.saql", "proc p1 [ oops\nreturn");
    let out = saql(&["check", path.to_str().unwrap()]);
    let _ = std::fs::remove_file(&path);
    assert_eq!(out.status.code(), Some(1));
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("error"), "no rendered error in: {err}");
}

#[test]
fn check_without_files_is_a_usage_error() {
    let out = saql(&["check"]);
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("at least one query file"));
}

#[test]
fn missing_flag_value_is_reported() {
    let out = saql(&["simulate", "--out"]);
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("--out needs a value"), "got: {err}");
}

#[test]
fn demo_runs_on_parallel_workers_and_detects_attack() {
    let out = saql(&[
        "demo",
        "--clients",
        "3",
        "--minutes",
        "20",
        "--workers",
        "2",
    ]);
    assert!(out.status.success(), "demo --workers 2 failed: {out:?}");
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("across 2 worker(s)"), "got: {text}");
    assert!(text.contains("scheduler:"), "merged stats missing: {text}");
}

#[test]
fn demo_rejects_non_numeric_workers() {
    let out = saql(&["demo", "--workers", "many"]);
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("--workers expects a number"), "got: {err}");
}

#[test]
fn demo_staged_lifecycle_registers_and_deregisters_live() {
    // A query attached mid-stream and detached before the end: the control
    // plane must work on both backends without restarting the engine.
    let query = temp_file(
        "live.saql",
        "proc p1 start proc p2 as e\nreturn distinct p1, p2",
    );
    let spec = format!("10:live-watch={}", query.to_str().unwrap());
    for workers in ["0", "2"] {
        let out = saql(&[
            "demo",
            "--clients",
            "3",
            "--minutes",
            "10",
            "--workers",
            workers,
            "--register-at",
            &spec,
            "--pause-at",
            "50:live-watch",
            "--resume-at",
            "100:live-watch",
            "--deregister-at",
            "200:live-watch",
        ]);
        assert!(out.status.success(), "workers={workers}: {out:?}");
        let text = String::from_utf8(out.stdout).unwrap();
        assert!(text.contains("registered `live-watch`"), "{text}");
        assert!(text.contains("paused `live-watch`"), "{text}");
        assert!(text.contains("resumed `live-watch`"), "{text}");
        assert!(text.contains("deregistered `live-watch`"), "{text}");
    }
    let _ = std::fs::remove_file(&query);
}

#[test]
fn demo_staged_lifecycle_rejects_unknown_names() {
    let out = saql(&[
        "demo",
        "--clients",
        "3",
        "--minutes",
        "5",
        "--deregister-at",
        "0:ghost",
    ]);
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("no live query `ghost`"), "got: {err}");
}

/// All `[ALERT ...]` lines of a run, sorted (order-insensitive multiset
/// fingerprint).
fn alert_lines(stdout: &[u8]) -> Vec<String> {
    let mut lines: Vec<String> = String::from_utf8_lossy(stdout)
        .lines()
        .filter(|l| l.contains("[ALERT "))
        .map(String::from)
        .collect();
    lines.sort();
    lines
}

fn simulate_store(name: &str) -> PathBuf {
    let mut store = std::env::temp_dir();
    store.push(format!("saql-cli-smoke-{}-{name}.d", std::process::id()));
    let _ = std::fs::remove_dir_all(&store);
    let out = saql(&[
        "simulate",
        "--out",
        store.to_str().unwrap(),
        "--clients",
        "3",
        "--minutes",
        "30",
        "--seed",
        "77",
    ]);
    assert!(out.status.success(), "simulate failed: {out:?}");
    store
}

#[test]
fn jsonl_round_trip_reproduces_replay_alerts() {
    // store --replay--> alerts  must equal  store --export--> JSONL
    // --jsonl source--> alerts: the JSON-lines codec and source lose
    // nothing the queries can see.
    let store = simulate_store("roundtrip");
    let jsonl = store.with_extension("jsonl");

    let exported = saql(&[
        "export",
        "--store",
        store.to_str().unwrap(),
        "--out",
        jsonl.to_str().unwrap(),
    ]);
    assert!(exported.status.success(), "export failed: {exported:?}");
    let err = String::from_utf8(exported.stderr).unwrap();
    assert!(err.contains("exported"), "no summary: {err}");
    let lines = std::fs::read_to_string(&jsonl).unwrap();
    assert!(lines.lines().count() > 100, "suspiciously small export");
    assert!(lines.lines().all(|l| l.starts_with('{')), "not JSONL");

    let via_store = saql(&[
        "replay",
        "--store",
        store.to_str().unwrap(),
        "--demo-queries",
    ]);
    assert!(via_store.status.success(), "{via_store:?}");
    let spec = format!("jsonl:{}", jsonl.to_str().unwrap());
    let via_jsonl = saql(&["replay", "--source", &spec, "--demo-queries"]);
    assert!(via_jsonl.status.success(), "{via_jsonl:?}");

    let store_alerts = alert_lines(&via_store.stdout);
    let jsonl_alerts = alert_lines(&via_jsonl.stdout);
    assert!(!store_alerts.is_empty(), "attack trace must alert");
    assert_eq!(store_alerts, jsonl_alerts, "round trip changed alerts");

    let _ = std::fs::remove_dir_all(&store);
    let _ = std::fs::remove_file(&jsonl);
}

#[test]
fn replay_merges_multiple_sources() {
    // A stored trace and a live simulated feed, fused by the watermarked
    // merge, on both backends.
    let store = simulate_store("multisource");
    let spec = format!("store:{}", store.to_str().unwrap());
    for workers in ["0", "2"] {
        let out = saql(&[
            "replay",
            "--source",
            &spec,
            "--source",
            "sim:seed=5,clients=3,minutes=10,no-attack",
            "--demo-queries",
            "--workers",
            workers,
        ]);
        assert!(out.status.success(), "workers={workers}: {out:?}");
        let text = String::from_utf8(out.stdout).unwrap();
        assert!(text.contains("replaying 2 source(s)"), "{text}");
        assert!(text.contains("sim"), "per-source stats missing: {text}");
        assert!(text.contains("store:"), "per-source stats missing: {text}");
        assert!(text.contains("[ALERT "), "attack store must alert: {text}");
    }
    let _ = std::fs::remove_dir_all(&store);
}

#[test]
fn replay_follow_paces_a_store_source() {
    let store = simulate_store("follow");
    let spec = format!("store:{}", store.to_str().unwrap());
    // Aggressive compression so the paced replay finishes instantly-ish.
    let out = saql(&[
        "replay",
        "--source",
        &spec,
        "--follow",
        "--speed",
        "100000",
        "--demo-queries",
    ]);
    assert!(out.status.success(), "follow replay failed: {out:?}");
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("replayed"), "{text}");
    let _ = std::fs::remove_dir_all(&store);
}

#[test]
fn truncated_store_source_degrades_with_warning_and_exit_one() {
    // A store whose last segment is chopped mid-record: the streaming
    // source stops at the last clean event, the run completes on partial
    // data, a warning names the source on stderr, and the exit code says
    // "degraded".
    let store = simulate_store("truncated");
    let last_segment = std::fs::read_dir(&store)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| p.extension().is_some_and(|e| e == "saqlseg"))
        .max()
        .expect("simulate seals its trace into segments");
    let raw = std::fs::read(&last_segment).unwrap();
    std::fs::write(&last_segment, &raw[..raw.len() - 7]).unwrap();
    let spec = format!("store:{}", store.to_str().unwrap());
    let out = saql(&["replay", "--source", &spec, "--demo-queries"]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("warning:"), "{err}");
    assert!(err.contains("stream ended early"), "{err}");
    let text = String::from_utf8(out.stdout).unwrap();
    assert!(text.contains("replayed"), "run still completes: {text}");
    // The same corrupt store through `export` fails loudly instead.
    let exported = saql(&["export", "--store", store.to_str().unwrap()]);
    assert_eq!(exported.status.code(), Some(2));
    let err = String::from_utf8(exported.stderr).unwrap();
    assert!(err.contains("corrupt store"), "{err}");
    let _ = std::fs::remove_dir_all(&store);
}

#[test]
fn replay_rejects_unknown_source_specs() {
    for (spec, needle) in [
        ("carrier-pigeon:coop", "unknown kind"),
        ("nocolon", "expects KIND:"),
        ("sim:flavor=mint", "unknown sim option"),
    ] {
        let out = saql(&["replay", "--source", spec, "--demo-queries"]);
        assert_eq!(out.status.code(), Some(2), "spec `{spec}` should fail");
        let err = String::from_utf8(out.stderr).unwrap();
        assert!(err.contains(needle), "spec `{spec}`: {err}");
    }
    // No sources at all is still a usage error.
    let out = saql(&["replay", "--demo-queries"]);
    assert_eq!(out.status.code(), Some(2));
    let err = String::from_utf8(out.stderr).unwrap();
    assert!(err.contains("--store DIR or --source"), "{err}");
}

#[test]
fn durable_store_checkpoint_and_resume_round_trip() {
    // simulate writes a segment-directory store; a checkpointed replay streams it in stored order and records progress;
    // --resume restores the engine and replays only the suffix.
    let mut store = std::env::temp_dir();
    store.push(format!("saql-cli-smoke-{}-durable.d", std::process::id()));
    let _ = std::fs::remove_dir_all(&store);
    let mut ckpt = std::env::temp_dir();
    ckpt.push(format!("saql-cli-smoke-{}-ckpt", std::process::id()));
    let _ = std::fs::remove_dir_all(&ckpt);
    std::fs::create_dir_all(&ckpt).unwrap();

    let out = saql(&[
        "simulate",
        "--out",
        store.to_str().unwrap(),
        "--clients",
        "3",
        "--minutes",
        "30",
        "--seed",
        "77",
    ]);
    assert!(out.status.success(), "simulate: {out:?}");

    let ckpted = saql(&[
        "replay",
        "--store",
        store.to_str().unwrap(),
        "--demo-queries",
        "--checkpoint-dir",
        ckpt.to_str().unwrap(),
        "--checkpoint-every",
        "500",
    ]);
    assert!(ckpted.status.success(), "checkpointed replay: {ckpted:?}");
    let text = String::from_utf8_lossy(&ckpted.stdout);
    assert!(text.contains("last checkpoint at offset"), "{text}");
    assert!(
        ckpt.join("checkpoint.saqlckp").is_file(),
        "checkpoint file missing"
    );

    // The checkpointed run streams in stored order — its alerts must match
    // the plain stored-order streaming path over the same store.
    let streamed = saql(&[
        "replay",
        "--source",
        &format!("store:{}", store.to_str().unwrap()),
        "--demo-queries",
    ]);
    assert!(streamed.status.success(), "{streamed:?}");
    let ckpt_alerts = alert_lines(&ckpted.stdout);
    assert!(!ckpt_alerts.is_empty(), "attack trace must alert");
    assert_eq!(
        ckpt_alerts,
        alert_lines(&streamed.stdout),
        "checkpointing changed the alert stream"
    );

    let resumed = saql(&[
        "replay",
        "--store",
        store.to_str().unwrap(),
        "--checkpoint-dir",
        ckpt.to_str().unwrap(),
        "--resume",
    ]);
    assert!(resumed.status.success(), "resume failed: {resumed:?}");
    let text = String::from_utf8_lossy(&resumed.stdout);
    assert!(text.contains("resuming"), "{text}");
    assert!(text.contains("at offset"), "{text}");

    let _ = std::fs::remove_dir_all(&store);
    let _ = std::fs::remove_dir_all(&ckpt);
}

#[test]
fn replay_rejects_inconsistent_durability_flags() {
    let store = simulate_store("durflags");
    let s = store.to_str().unwrap();
    for (args, needle) in [
        (
            vec!["replay", "--store", s, "--resume"],
            "--resume requires",
        ),
        (
            vec![
                "replay",
                "--store",
                s,
                "--checkpoint-dir",
                "/tmp/x",
                "--follow",
            ],
            "drop --follow",
        ),
        (
            vec![
                "replay",
                "--source",
                "sim:minutes=1",
                "--checkpoint-dir",
                "/tmp/x",
            ],
            "exactly one --store",
        ),
        (
            vec![
                "replay",
                "--store",
                s,
                "--checkpoint-dir",
                "/tmp/x",
                "--host",
                "h1",
            ],
            "change stream offsets",
        ),
    ] {
        let out = saql(&args);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {out:?}");
        let err = String::from_utf8(out.stderr).unwrap();
        assert!(err.contains(needle), "{args:?}: {err}");
    }
    let _ = std::fs::remove_dir_all(&store);
}

#[test]
fn simulate_writes_a_store_directory_every_reader_opens() {
    let store = simulate_store("everyreader");
    assert!(store.is_dir(), "a store is a directory");
    assert!(store.join("wal.saqlwal").is_file());
    let path = store.to_str().unwrap();

    let replayed = saql(&["replay", "--store", path, "--demo-queries"]);
    assert!(replayed.status.success(), "{replayed:?}");
    assert!(!alert_lines(&replayed.stdout).is_empty());

    let exported = saql(&["export", "--store", path]);
    assert!(exported.status.success(), "{exported:?}");
    assert!(exported.stdout.starts_with(b"{"), "JSONL on stdout");

    let mut repl = Command::new(env!("CARGO_BIN_EXE_saql"))
        .args(["repl", "--store", path])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn saql repl");
    repl.stdin
        .take()
        .unwrap()
        .write_all(b"deploy-demo\nrun\nquit\n")
        .unwrap();
    let out = repl.wait_with_output().unwrap();
    assert!(out.status.success(), "{out:?}");
    let shown = String::from_utf8_lossy(&out.stdout);
    assert!(shown.contains("ALERT c5-exfiltration"), "{shown}");

    // A second simulate into the same directory refuses to overwrite it.
    let again = saql(&["simulate", "--out", path, "--minutes", "1"]);
    assert_eq!(again.status.code(), Some(2), "{again:?}");
    let err = String::from_utf8_lossy(&again.stderr);
    assert!(err.contains("already holds a store"), "{err}");
    let _ = std::fs::remove_dir_all(&store);
}

#[test]
fn single_file_store_paths_are_refused_with_the_removal_message() {
    let file = temp_file("legacy.bin", "SAQLSTO1");
    let path = file.to_str().unwrap();
    for args in [
        vec!["replay", "--store", path, "--demo-queries"],
        vec!["export", "--store", path],
        vec!["repl", "--store", path],
    ] {
        let out = saql(&args);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {out:?}");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(err.contains("single-file"), "{args:?}: {err}");
        assert!(err.contains("removed"), "{args:?}: {err}");
    }
    let _ = std::fs::remove_file(&file);
}

#[test]
fn a_failing_checkpoint_dir_warns_and_finishes_the_run() {
    // One checkpoint-failure policy for plain and `|>` runs alike: the
    // cadence stops with a warning, every alert still prints, exit 1.
    let store = simulate_store("ckpt-fail");
    let not_a_dir = temp_file("ckpt-fail-regular-file", "not a directory\n");
    let stage1 = "proc p write ip i as evt #time(10 min)\n\
                  state ss { writes := count() } group by evt.agentid\n\
                  alert ss[0].writes >= 5\n\
                  return evt.agentid as host, ss[0].writes as amount\n";
    let tiered = format!(
        "{stage1}|>\nfrom #time(30 min)\n\
         state es {{ hosts := distinct_count(_in.agentid) }}\n\
         alert es[0].hosts >= 2\n\
         return es[0].hosts as hosts\n"
    );
    for (name, text) in [("plain", stage1.to_string()), ("tiered", tiered)] {
        let query = temp_file(&format!("ckpt-fail-{name}.saql"), &text);
        let args = ["replay", "--store", store.to_str().unwrap()];
        let args = [&args[..], &["--query", query.to_str().unwrap()]].concat();
        let reference = saql(&args);
        assert!(reference.status.success(), "{name}: {reference:?}");
        let expected = alert_lines(&reference.stdout);
        assert!(!expected.is_empty(), "{name}: the trace must alert");

        let failing = [
            &args[..],
            &["--checkpoint-dir", not_a_dir.to_str().unwrap()],
            &["--checkpoint-every", "500"],
        ]
        .concat();
        let out = saql(&failing);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(1), "{name}: {out:?}");
        assert!(
            stderr.contains("warning: checkpointing stopped"),
            "{name}: {stderr}"
        );
        assert_eq!(alert_lines(&out.stdout), expected, "{name}: alerts lost");
        let _ = std::fs::remove_file(&query);
    }
    let _ = std::fs::remove_file(&not_a_dir);
    let _ = std::fs::remove_dir_all(&store);
}

/// A store of `n` process-start events a second apart, written with
/// `StoreWriter`; `out_of_order` moves the last event 500 s back in time,
/// far beyond the default 1 s lateness bound.
fn write_store(name: &str, n: u64, out_of_order: bool) -> PathBuf {
    use saql_model::event::EventBuilder;
    use saql_model::ProcessInfo;
    let mut dir = std::env::temp_dir();
    dir.push(format!("saql-cli-smoke-{}-{name}.d", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let events: Vec<_> = (1..=n)
        .map(|i| {
            let ts = if out_of_order && i == n {
                1_000
            } else {
                500_000 + i * 1_000
            };
            EventBuilder::new(i, "h1", ts)
                .subject(ProcessInfo::new(1, "cmd.exe", "u"))
                .starts_process(ProcessInfo::new(2, "notepad.exe", "u"))
                .build()
        })
        .collect();
    let mut store = saql_stream::StoreWriter::create_segmented(&dir).unwrap();
    store.append(&events).unwrap();
    store.sync().unwrap();
    dir
}

fn checkpointed_replay(store: &Path, ckpt: &Path, extra: &[&str]) -> Output {
    let args = [
        &[
            "replay",
            "--store",
            store.to_str().unwrap(),
            "--checkpoint-dir",
            ckpt.to_str().unwrap(),
            "--checkpoint-every",
            "1",
        ][..],
        extra,
    ]
    .concat();
    saql(&args)
}

#[test]
fn a_checkpointed_replay_streams_an_out_of_order_log_in_stored_order() {
    // Offsets count stored order, so the log must not be re-sorted or
    // thinned by a lateness bound: every stored event is replayed and the
    // last checkpoint lands at the store's end.
    let store = write_store("ooo", 40, true);
    let ckpt = store.with_extension("ckpt");
    let _ = std::fs::remove_dir_all(&ckpt);
    let out = checkpointed_replay(&store, &ckpt, &["--demo-queries"]);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stdout.contains("replayed 40 events"), "{stdout}");
    assert!(!stdout.contains("dropped late"), "{stdout}");
    assert!(!stderr.contains("dropped"), "{stderr}");
    assert!(
        stdout.contains("last checkpoint at offset 40 in"),
        "{stdout}"
    );
    let _ = std::fs::remove_dir_all(&store);
    let _ = std::fs::remove_dir_all(&ckpt);
}

/// The sort contract of each store read, on a store whose last event is
/// 500 s behind the rest: `replay --store` and `--source store: --follow`
/// sort the whole store, a plain `--source store:` holds it to the
/// lateness bound like any feed.
#[test]
fn store_reads_sort_fully_or_within_the_lateness_bound() {
    let store = write_store("sort-contract", 40, true);
    let path = store.to_str().unwrap();
    let spec = format!("store:{path}");
    for args in [
        &["replay", "--store", path][..],
        &["replay", "--source", &spec, "--follow"][..],
    ] {
        let out = saql(&[args, &["--demo-queries"]].concat());
        assert!(out.status.success(), "{args:?}: {out:?}");
        let stdout = String::from_utf8_lossy(&out.stdout);
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(stdout.contains("replayed 40 events"), "{args:?}: {stdout}");
        assert!(!stdout.contains("dropped late"), "{args:?}: {stdout}");
        assert!(!stderr.contains("dropped"), "{args:?}: {stderr}");
    }
    let out = saql(&["replay", "--source", &spec, "--demo-queries"]);
    assert!(out.status.success(), "{out:?}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stdout.contains("replayed 39 events"), "{stdout}");
    assert!(stdout.contains(": 39 events, 1 dropped late"), "{stdout}");
    assert!(
        stderr.contains("warning: src#0 store:") && stderr.contains("dropped 1 event(s)"),
        "{stderr}"
    );
    let _ = std::fs::remove_dir_all(&store);
}

#[test]
fn resume_refuses_a_checkpoint_past_the_end_of_the_store() {
    let long = write_store("ckpt-long", 30, false);
    let short = write_store("ckpt-short", 10, false);
    let ckpt = long.with_extension("ckpt");
    let _ = std::fs::remove_dir_all(&ckpt);
    let out = checkpointed_replay(&long, &ckpt, &["--demo-queries"]);
    assert!(out.status.success(), "{out:?}");
    let out = saql(&[
        "replay",
        "--store",
        short.to_str().unwrap(),
        "--checkpoint-dir",
        ckpt.to_str().unwrap(),
        "--resume",
    ]);
    assert_eq!(out.status.code(), Some(2), "{out:?}");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(
        stderr.contains("checkpoint offset 30 is ahead of the durable store (10 events)")
            && stderr.contains("the store and checkpoint dir do not belong together"),
        "{stderr}"
    );
    for dir in [&long, &short, &ckpt] {
        let _ = std::fs::remove_dir_all(dir);
    }
}

/// Run `saql` with a deadline: a command that should fail at startup must
/// not be left listening if it does not.
fn saql_within(args: &[&str], secs: u64) -> Output {
    let mut child = Command::new(env!("CARGO_BIN_EXE_saql"))
        .args(args)
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn saql binary");
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(secs);
    while child.try_wait().unwrap().is_none() {
        if std::time::Instant::now() > deadline {
            let _ = child.kill();
            break;
        }
        std::thread::sleep(std::time::Duration::from_millis(20));
    }
    child.wait_with_output().unwrap()
}

#[test]
fn a_corrupt_checkpoint_is_refused_not_panicked() {
    use saql_engine::{Engine, EngineConfig};
    let store = write_store("corrupt-ckpt", 20, false);
    let ckpt = store.with_extension("ckpt");
    let _ = std::fs::remove_dir_all(&ckpt);
    let out = checkpointed_replay(&store, &ckpt, &["--demo-queries"]);
    assert!(out.status.success(), "{out:?}");
    let file = ckpt.join("checkpoint.saqlckp");
    let whole = std::fs::read(&file).unwrap();

    // A rule checkpoint whose partial match sits at a step the recompiled
    // plan does not have, written through the engine API.
    let mut engine = Engine::new(EngineConfig::default());
    engine
        .register("one-step", "proc p start proc q as e\nreturn p, q")
        .unwrap();
    let mut forged = engine.checkpoint(10, saql_model::Timestamp::ZERO).unwrap();
    let snapshot = forged.rows[0].snapshot.as_mut().unwrap();
    let matcher = snapshot.matcher.as_mut().unwrap();
    matcher
        .partials
        .push(saql_engine::matcher::PartialSnapshot {
            seq: 0,
            next: 7,
            events: vec![None],
            bindings: vec![None, None],
            last_ts: saql_model::Timestamp::ZERO,
        });

    for (case, damage) in [("truncated", "corrupt checkpoint"), ("forged", "one-step")] {
        if case == "truncated" {
            std::fs::write(&file, &whole[..whole.len() - 1]).unwrap();
        } else {
            forged.write_atomic(&ckpt).unwrap();
        }
        let (s, c) = (store.to_str().unwrap(), ckpt.to_str().unwrap());
        let resume = ["--store", s, "--checkpoint-dir", c, "--resume"];
        let serve = ["serve", "--listen", "127.0.0.1:0", "--quiet"];
        for args in [
            [&["replay"][..], &resume].concat(),
            [&serve[..], &resume].concat(),
        ] {
            let out = saql_within(&args, 30);
            let stderr = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(2), "{case} {}: {stderr}", args[0]);
            assert!(
                stderr.contains("error: checkpoint error:") && stderr.contains(damage),
                "{case} {}: {stderr}",
                args[0]
            );
            assert!(!stderr.contains("panicked"), "{case} {}: {stderr}", args[0]);
        }
    }
    let _ = std::fs::remove_dir_all(&store);
    let _ = std::fs::remove_dir_all(&ckpt);
}

#[test]
fn serve_refuses_initial_queries_on_resume_like_replay() {
    use saql_engine::{CheckpointConfig, Deployment};
    let store = write_store("serve-resume-q", 10, false);
    let ckpt = store.with_extension("ckpt");
    let _ = std::fs::remove_dir_all(&ckpt);
    let out = checkpointed_replay(&store, &ckpt, &["--demo-queries"]);
    assert!(out.status.success(), "{out:?}");

    let replayed = checkpointed_replay(&store, &ckpt, &["--resume", "--demo-queries"]);
    assert_eq!(replayed.status.code(), Some(2), "{replayed:?}");
    let replay_err = String::from_utf8_lossy(&replayed.stderr).into_owned();

    let served = saql_serve::Server::start(saql_serve::ServeConfig {
        listen: "127.0.0.1:0".into(),
        durable_store: Some(store.clone()),
        deployment: Deployment {
            queries: vec![("q".into(), "proc p start proc q as e\nreturn p, q".into())],
            checkpoints: Some(CheckpointConfig {
                dir: ckpt.clone(),
                every_events: 0,
            }),
            resume: true,
            ..Deployment::default()
        },
        ..saql_serve::ServeConfig::default()
    });
    let err = served.err().expect("serve must refuse queries on resume");
    assert!(
        replay_err.contains(&format!("error: {err}")),
        "{err} / {replay_err}"
    );
    assert!(err.contains("checkpointed query set"), "{err}");
    let _ = std::fs::remove_dir_all(&store);
    let _ = std::fs::remove_dir_all(&ckpt);
}

#[test]
fn jsonl_from_stdin_reproduces_replay_alerts() {
    let store = simulate_store("stdin");
    let exported = saql(&["export", "--store", store.to_str().unwrap()]);
    assert!(exported.status.success(), "{exported:?}");
    let mut child = Command::new(env!("CARGO_BIN_EXE_saql"))
        .args(["replay", "--source", "jsonl:-", "--demo-queries"])
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn saql replay");
    let mut stdin = child.stdin.take().unwrap();
    let feed = std::thread::spawn(move || stdin.write_all(&exported.stdout));
    let via_stdin = child.wait_with_output().unwrap();
    feed.join().unwrap().unwrap();
    assert!(via_stdin.status.success(), "{via_stdin:?}");
    assert!(String::from_utf8_lossy(&via_stdin.stdout).contains("jsonl:-"));

    let spec = format!("store:{}", store.to_str().unwrap());
    let via_store = saql(&["replay", "--source", &spec, "--demo-queries"]);
    let expected = alert_lines(&via_store.stdout);
    assert!(!expected.is_empty(), "attack trace must alert");
    assert_eq!(alert_lines(&via_stdin.stdout), expected);
    let _ = std::fs::remove_dir_all(&store);
}

#[test]
fn an_out_of_order_jsonl_file_within_lateness_alerts_like_its_store() {
    // Neighbouring lines swapped wherever their timestamps differ by less
    // than the 1 s lateness bound: the merge must re-sort them as it would
    // stored events, so the file may not promise a watermark from what the
    // merge has dequeued.
    let store = simulate_store("ooo-jsonl");
    let exported = saql(&["export", "--store", store.to_str().unwrap()]);
    assert!(exported.status.success(), "{exported:?}");
    let text = String::from_utf8(exported.stdout).unwrap();
    let mut lines: Vec<&str> = text.lines().collect();
    let ts = |line: &str| saql_model::json::decode_event_json(line).unwrap().ts;
    let mut swapped = 0;
    for i in (0..lines.len() - 1).step_by(2) {
        let (a, b) = (ts(lines[i]), ts(lines[i + 1]));
        if a < b && b.delta(a).as_millis() < 500 {
            lines.swap(i, i + 1);
            swapped += 1;
        }
    }
    assert!(swapped > 1_000, "only {swapped} swaps");
    let jsonl = store.with_extension("shuffled.jsonl");
    std::fs::write(&jsonl, lines.join("\n") + "\n").unwrap();

    let spec = format!("jsonl:{}", jsonl.to_str().unwrap());
    let shuffled = saql(&["replay", "--source", &spec, "--demo-queries"]);
    assert!(shuffled.status.success(), "{shuffled:?}");
    assert!(!String::from_utf8_lossy(&shuffled.stdout).contains("dropped late"));
    let spec = format!("store:{}", store.to_str().unwrap());
    let stored = saql(&["replay", "--source", &spec, "--demo-queries"]);
    let expected = alert_lines(&stored.stdout);
    assert!(!expected.is_empty(), "attack trace must alert");
    assert_eq!(alert_lines(&shuffled.stdout), expected);
    let _ = std::fs::remove_dir_all(&store);
    let _ = std::fs::remove_file(&jsonl);
}

#[test]
fn a_jsonl_read_error_ends_the_stream_early_with_exit_one() {
    // A directory opens as a file but fails its first read.
    let mut dir = std::env::temp_dir();
    dir.push(format!(
        "saql-cli-smoke-{}-read-error.d",
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    let spec = format!("jsonl:{}", dir.to_str().unwrap());
    let out = saql(&["replay", "--source", &spec, "--demo-queries"]);
    assert_eq!(out.status.code(), Some(1), "{out:?}");
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("stream ended early: read error"), "{err}");
    assert!(String::from_utf8_lossy(&out.stdout).contains("replayed 0 events"));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn a_closed_stdout_pipe_ends_the_run_without_a_panic() {
    // Every event alerts, so the run prints far more than a pipe holds:
    // it is still printing when the reader goes away after one line.
    use std::io::{BufRead, BufReader};
    let store = write_store("sigpipe", 5_000, false);
    let query = temp_file("sigpipe.saql", "proc p start proc q as e\nreturn p, q, e");
    let mut child = Command::new(env!("CARGO_BIN_EXE_saql"))
        .args(["replay", "--store", store.to_str().unwrap()])
        .args(["--query", query.to_str().unwrap()])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn saql replay");
    let mut first = String::new();
    let mut stdout = BufReader::new(child.stdout.take().unwrap());
    stdout.read_line(&mut first).unwrap();
    assert!(first.starts_with("replaying"), "{first}");
    drop(stdout);
    let out = child.wait_with_output().unwrap();
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(!err.contains("panicked"), "{err}");
    assert!(!out.status.success(), "the run cannot finish printing");
    let _ = std::fs::remove_dir_all(&store);
    let _ = std::fs::remove_file(&query);
}
