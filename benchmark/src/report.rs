//! Turning a [`Report`] into what gets printed and kept: the driver's
//! result line, a table for people, and a result file that carries the
//! machine facts with every number.

use std::fmt::Write as _;
use std::process::Command;
use std::time::Duration;

use crate::metrics::{END_TO_END, PER_LAYER};
use crate::wire::json_escape;
use crate::workloads::{Ctx, Report};

/// What a latency reads when the alert never came: JSON has no infinity,
/// and a missing alert must miss every latency limit.
const NEVER_MS: f64 = 1e12;

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// Facts about the machine and the invocation that ride in every result file.
pub fn machine_facts(ctx: &Ctx, workload: &str, wall: Duration) -> Vec<(String, String)> {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease").unwrap_or_default();
    vec![
        ("workload".into(), workload.into()),
        ("seed".into(), ctx.seed.to_string()),
        ("seconds".into(), ctx.seconds.to_string()),
        ("trace".into(), u8::from(ctx.trace).to_string()),
        ("nproc".into(), nproc.to_string()),
        ("kernel".into(), kernel.trim().to_string()),
        ("rustc".into(), command_line("rustc", &["-V"])),
        (
            "git_commit".into(),
            command_line("git", &["rev-parse", "HEAD"]),
        ),
        (
            "invocation_wall_s".into(),
            format!("{:.3}", wall.as_secs_f64()),
        ),
    ]
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        format!("{NEVER_MS}")
    }
}

/// The driver's line: every end-to-end metric untraced, every per-layer
/// metric traced. A missing end-to-end value is a bug in the harness.
pub fn result_line(report: &Report, trace: bool) -> Result<String, String> {
    let mut metrics = String::new();
    let names = if trace { PER_LAYER } else { END_TO_END };
    for (i, (name, unit)) in names.iter().enumerate() {
        let value = match report.values.get(*name) {
            Some(v) => *v,
            None if trace => 0.0,
            None => return Err(format!("end-to-end metric {name} was not measured")),
        };
        if i > 0 {
            metrics.push(',');
        }
        write!(
            metrics,
            "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
            json_number(value)
        )
        .expect("string write");
    }
    Ok(format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{metrics}}}}}",
        report.failed == 0 && report.invalid.is_empty(),
        report.attempted.max(1),
        report.failed,
    ))
}

/// Every metric by name with its unit, the facts, and what failed.
pub fn print_human(report: &Report, workload: &str, ctx: &Ctx) {
    println!(
        "== {workload} · seed {} · {} s · trace {}",
        ctx.seed,
        ctx.seconds,
        u8::from(ctx.trace)
    );
    for (title, names) in [("end-to-end", END_TO_END), ("per-layer", PER_LAYER)] {
        let rows: Vec<_> = names
            .iter()
            .filter(|(n, _)| report.values.contains_key(*n))
            .collect();
        if rows.is_empty() {
            continue;
        }
        println!("-- {title}");
        for (name, unit) in rows {
            println!("{name:<48} {:>16.4} {unit}", report.values[*name]);
        }
    }
    for line in &report.ladder {
        println!("{line}");
    }
    println!("-- facts");
    for (name, value) in &report.facts {
        println!("{name:<48} {value}");
    }
    let share = report.failed as f64 / report.attempted.max(1) as f64;
    println!(
        "{:<48} {share:.6} ({} of {})",
        "failed_share", report.failed, report.attempted
    );
    for problem in &report.problems {
        println!("CHECK FAILED  {problem}");
    }
    for reason in &report.invalid {
        println!("INVALID RUN (the generator, not the program, fell behind)  {reason}");
    }
}

fn json_object(pairs: &[(String, String)]) -> String {
    let body: Vec<String> = pairs
        .iter()
        .map(|(k, v)| format!("\"{}\":\"{}\"", json_escape(k), json_escape(v)))
        .collect();
    format!("{{{}}}", body.join(","))
}

/// Keep the run: `result-<workload>-seed<N>-trace<T>-<unix ms>.json` in the
/// output directory, with every measured value (not only the ones the
/// driver's line carries), the facts and the failed checks.
pub fn write_result_file(
    ctx: &Ctx,
    workload: &str,
    report: &Report,
    facts: &[(String, String)],
    line: &str,
) -> Result<(), String> {
    let stamp = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map_or(0, |d| d.as_millis());
    let path = ctx.out.join(format!(
        "result-{workload}-seed{}-trace{}-{stamp}.json",
        ctx.seed,
        u8::from(ctx.trace)
    ));
    let values: Vec<String> = report
        .values
        .iter()
        .map(|(name, v)| format!("\"{name}\":{}", json_number(*v)))
        .collect();
    let problems: Vec<String> = report
        .problems
        .iter()
        .chain(&report.invalid)
        .map(|p| format!("\"{}\"", json_escape(p)))
        .collect();
    let body = format!(
        "{{\"machine\":{},\"facts\":{},\"values\":{{{}}},\"problems\":[{}],\"result\":{line}}}\n",
        json_object(facts),
        json_object(&report.facts),
        values.join(","),
        problems.join(","),
    );
    std::fs::write(&path, body).map_err(|e| format!("{}: {e}", path.display()))
}
