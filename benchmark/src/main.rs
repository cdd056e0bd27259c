//! `saql-benchmark`: run one workload of the benchmark against a built
//! `saql` binary and print the result the driver reads. `run.sh` builds
//! everything and calls this; see `benchmark/README.md`.

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use saql_benchmark::child::start_watchdog;
use saql_benchmark::report;
use saql_benchmark::workloads::{self, Ctx, WORKLOADS};

const USAGE: &str = "\
usage: saql-benchmark --saql BIN --queries DIR --out DIR [--ladder BIN]
                      --workload NAME --seed N --seconds S --trace 0|1
workloads: serve-flood serve-paced serve-manyquery replay-batch";

/// Every run ends, or is ended, inside the driver's 180 s limit.
const HARD_LIMIT: Duration = Duration::from_secs(170);

fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|at| args.get(at + 1))
        .map(String::as_str)
}

fn required<'a>(args: &'a [String], name: &str) -> Result<&'a str, String> {
    flag(args, name).ok_or_else(|| format!("missing {name}\n{USAGE}"))
}

fn number(args: &[String], name: &str) -> Result<u64, String> {
    required(args, name)?
        .parse()
        .map_err(|_| format!("{name} expects a whole number\n{USAGE}"))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

fn run(args: &[String]) -> Result<ExitCode, String> {
    let workload = required(args, "--workload")?;
    if !WORKLOADS.contains(&workload) {
        return Err(format!("unknown workload `{workload}`\n{USAGE}"));
    }
    let seconds = number(args, "--seconds")?;
    if !(1..=60).contains(&seconds) {
        return Err("--seconds must be 1..=60".into());
    }
    let ctx = Ctx {
        saql: PathBuf::from(required(args, "--saql")?),
        ladder: flag(args, "--ladder").map(PathBuf::from),
        queries: PathBuf::from(required(args, "--queries")?),
        out: PathBuf::from(required(args, "--out")?),
        seed: number(args, "--seed")?,
        seconds,
        trace: match required(args, "--trace")? {
            "0" => false,
            "1" => true,
            _ => return Err(format!("--trace expects 0 or 1\n{USAGE}")),
        },
    };
    if !ctx.saql.is_file() {
        return Err(format!(
            "{} is not a file: build `saql` first (run.sh does)",
            ctx.saql.display()
        ));
    }
    std::fs::create_dir_all(&ctx.out).map_err(|e| format!("{}: {e}", ctx.out.display()))?;
    start_watchdog(HARD_LIMIT, format!("workload {workload}"));

    let began = std::time::Instant::now();
    let mut result = workloads::run(&ctx, workload)?;
    if ctx.trace {
        workloads::run_ladder(&ctx, workload, &mut result)?;
    }
    let facts = report::machine_facts(&ctx, workload, began.elapsed());
    report::print_human(&result, workload, &ctx);
    let line = report::result_line(&result, ctx.trace)?;
    report::write_result_file(&ctx, workload, &result, &facts, &line)?;
    println!("{line}");
    Ok(if result.failed == 0 && result.invalid.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    })
}
