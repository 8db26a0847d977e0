//! `q100-perfbench --workload <dse|bwsweep|soak> [--seed <n>] [--seconds <s>] [--trace <0|1>]`
//!
//! Prints the run's inputs, then one JSON line: `correct`, `attempted`,
//! `failed` and `metrics` (end-to-end with `--trace 0`, per-layer with
//! `--trace 1`). Exits 1 when any op or check failed, 2 on bad usage.

use std::process::ExitCode;

use q100_perfbench::{run, Options, Workload, DEFAULT_SEED};

const USAGE: &str =
    "usage: q100-perfbench --workload <dse|bwsweep|soak> [--seed <n>] [--seconds <s>] [--trace <0|1>]";

fn parse(args: &[String]) -> Result<Options, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (DEFAULT_SEED, 10.0, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value).ok_or_else(|| format!("unknown workload `{value}`"))?,
                );
            }
            "--seed" => seed = value.parse().map_err(|_| format!("bad --seed `{value}`"))?,
            "--seconds" => {
                seconds = value.parse().map_err(|_| format!("bad --seconds `{value}`"))?;
                if !(seconds >= 0.0 && f64::is_finite(seconds)) {
                    return Err(format!("bad --seconds `{value}`"));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not `{value}`")),
                }
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Options { workload, seed, seconds, trace })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let report = run(&opts);
    for e in &report.errors {
        eprintln!("FAILED: {e}");
    }
    println!("{}", report.echo);
    println!("{}", report.to_json());
    if report.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
