//! The REACT benchmark: one command, three workloads.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <fig5|churn-sharded|ingest> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` prints the end-to-end metrics of an untraced run,
//! `--trace 1` the per-layer metrics of a traced run. The last line of
//! standard output is the result object; the host stamp and the full
//! record go to `perfbench/out/` and standard error. See `README.md`.

mod calib;
mod des;
mod http;
mod ingest;
mod ledger;
mod report;
mod stats;

use report::{peak_rss_mb, result_line, stamp, write_trace_file, Outcome};
use std::process::ExitCode;

const USAGE: &str =
    "usage: react-perfbench --workload <fig5|churn-sharded|ingest> --seed <u64> --seconds <1..=3600> --trace <0|1>";

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value:?}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<u64>()
                        .ok()
                        .filter(|s| (1..=3600).contains(s))
                        .ok_or_else(|| format!("bad seconds {value:?}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad trace {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(err) => {
            eprintln!("{err}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let seconds = args.seconds as f64;
    let mut outcome: Outcome = match args.workload.as_str() {
        "fig5" => des::run(&des::DesSpec::fig5(), args.seed, seconds, args.trace),
        "churn-sharded" => des::run(
            &des::DesSpec::churn_sharded(),
            args.seed,
            seconds,
            args.trace,
        ),
        "ingest" => ingest::run(args.seed, seconds, args.trace),
        other => {
            eprintln!("unknown workload {other:?}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    outcome.e2e.peak_rss_mb = peak_rss_mb().unwrap_or(f64::NAN);

    let metrics = if args.trace {
        outcome.per_layer()
    } else {
        outcome.end_to_end()
    };
    if metrics.iter().any(|(_, _, v)| !v.is_finite()) {
        outcome.problem("a metric has no finite value".to_string());
    }
    let stamp = stamp(&args.workload, args.seed, args.seconds, args.trace);
    for line in outcome.notes.iter().chain(&outcome.problems) {
        eprintln!("{}: {line}", args.workload);
    }
    match write_trace_file(
        &stamp,
        &args.workload,
        args.seed,
        args.trace,
        &outcome,
        &metrics,
    ) {
        Ok(path) => eprintln!("record: {path}"),
        Err(err) => eprintln!("record not written: {err}"),
    }
    let correct = outcome.problems.is_empty();
    println!("stamp: {stamp}");
    println!(
        "{}",
        result_line(correct, outcome.attempted, outcome.failed, &metrics)
    );
    ExitCode::SUCCESS
}
