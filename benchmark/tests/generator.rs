//! The generator is a pure function of the seed, its oracle is exact, every
//! query the benchmark ships passes `saql check`, and the metric lists the
//! harness prints are the ones `BENCHMARK.json` declares.

use std::path::{Path, PathBuf};
use std::process::Command;

use saql_benchmark::alerts::{check_matches, parse_text};
use saql_benchmark::gen::{generate, RULE_QUERIES};
use saql_benchmark::{many, metrics};

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("benchmark/ sits in the repo")
        .to_path_buf()
}

/// The `saql` under test: `$SAQL_BIN`, else the repository's release build
/// (built here if it is not there yet).
fn saql_bin() -> PathBuf {
    if let Ok(bin) = std::env::var("SAQL_BIN") {
        return PathBuf::from(bin);
    }
    let root = repo_root();
    let bin = root.join("target/release/saql");
    if !bin.is_file() {
        let status = Command::new("cargo")
            .args([
                "build",
                "--release",
                "--offline",
                "--quiet",
                "-p",
                "saql-cli",
            ])
            .env("CARGO_TARGET_DIR", root.join("target"))
            .current_dir(&root)
            .status()
            .expect("cargo runs");
        assert!(status.success(), "building saql failed");
    }
    bin
}

fn scratch(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("out")
        .join(format!("test-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

#[test]
fn same_seed_same_stream_and_oracle() {
    let (a, oracle_a) = generate(7, 60_000);
    let (b, oracle_b) = generate(7, 60_000);
    assert!(a == b, "same seed must give a byte-identical stream");
    assert_eq!(oracle_a, oracle_b);
    assert!(!oracle_a.is_empty());
    let (c, oracle_c) = generate(8, 60_000);
    assert!(a != c, "a different seed must give a different stream");
    assert_ne!(oracle_a, oracle_c);
}

#[test]
fn a_prefix_of_a_longer_stream_is_the_shorter_stream() {
    let (short, oracle_short) = generate(3, 20_000);
    let (long, oracle_long) = generate(3, 40_000);
    assert!(long.starts_with(&short));
    assert_eq!(oracle_long[..oracle_short.len()], oracle_short[..]);
}

#[test]
fn every_shipped_query_passes_saql_check() {
    let saql = saql_bin();
    let dir = scratch("check");
    let mut files: Vec<PathBuf> = std::fs::read_dir(repo_root().join("benchmark/queries/family"))
        .expect("family directory")
        .map(|e| e.expect("dir entry").path())
        .collect();
    assert_eq!(files.len(), 8, "Q-family has 8 queries");
    let rendered = many::render(42);
    assert_eq!(rendered.len(), 256, "Q-many has 256 queries");
    for (tenant, name, text) in &rendered {
        let path = dir.join(format!("{tenant}-{name}.saql"));
        std::fs::write(&path, text).expect("write query");
        files.push(path);
    }
    let output = Command::new(&saql)
        .arg("check")
        .args(&files)
        .output()
        .expect("saql check runs");
    let _ = std::fs::remove_dir_all(&dir);
    assert!(
        output.status.success(),
        "saql check failed:\n{}{}",
        String::from_utf8_lossy(&output.stdout),
        String::from_utf8_lossy(&output.stderr)
    );
}

#[test]
fn q_many_is_seeded_and_spreads_over_two_tenants() {
    assert_eq!(many::render(1), many::render(1));
    assert_ne!(many::render(1), many::render(2));
    let rendered = many::render(1);
    for tenant in many::TENANTS {
        assert_eq!(
            rendered.iter().filter(|(t, _, _)| *t == tenant).count(),
            128
        );
    }
}

#[test]
fn oracle_equals_the_rule_alerts_of_an_offline_replay() {
    let saql = saql_bin();
    let dir = scratch("oracle");
    let (bytes, oracle) = generate(11, 50_000);
    let trace = dir.join("prefix.jsonl");
    std::fs::write(&trace, bytes).expect("write trace");
    let mut cmd = Command::new(&saql);
    cmd.arg("replay")
        .arg("--source")
        .arg(format!("jsonl:{}", trace.display()));
    for query in RULE_QUERIES {
        cmd.arg("--query")
            .arg(repo_root().join(format!("benchmark/queries/family/{query}.saql")));
    }
    let output = cmd.output().expect("saql replay runs");
    let _ = std::fs::remove_dir_all(&dir);
    assert!(
        output.status.success(),
        "{}",
        String::from_utf8_lossy(&output.stderr)
    );
    let seen: Vec<_> = String::from_utf8_lossy(&output.stdout)
        .lines()
        .filter_map(|l| parse_text(l, 0))
        .collect();
    let check = check_matches(&oracle, &seen);
    assert_eq!(
        (check.missing, check.surplus),
        (0, 0),
        "oracle has {} alerts, replay printed {}",
        oracle.len(),
        seen.len()
    );
    assert!(
        oracle.len() > 200,
        "a 50k-event prefix completes a few hundred attacks"
    );
}

/// `"name": "x", "unit": "y"` pairs of one array of `BENCHMARK.json`.
fn declared(json: &str, array: &str) -> Vec<(String, String)> {
    let at = json.find(&format!("\"{array}\"")).expect("array present");
    let body = &json[at..];
    let body = &body[..body.find(']').expect("array closes")];
    let field = |chunk: &str, key: &str| -> String {
        let at = chunk.find(&format!("\"{key}\"")).expect("field present");
        let rest = &chunk[at + key.len() + 2..];
        let open = rest.find('"').expect("string opens");
        let close = rest[open + 1..].find('"').expect("string closes");
        rest[open + 1..open + 1 + close].to_string()
    };
    body.split('{')
        .skip(1)
        .map(|chunk| (field(chunk, "name"), field(chunk, "unit")))
        .collect()
}

#[test]
fn benchmark_json_declares_exactly_the_metrics_the_harness_prints() {
    let json = std::fs::read_to_string(repo_root().join("BENCHMARK.json"))
        .expect("BENCHMARK.json at the repo root");
    let table = |t: &[(&str, &str)]| {
        t.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect::<Vec<_>>()
    };
    assert_eq!(declared(&json, "end_to_end"), table(metrics::END_TO_END));
    assert_eq!(declared(&json, "per_layer"), table(metrics::PER_LAYER));
}
