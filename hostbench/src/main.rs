//! Host-time benchmark of the ELZAR simulator.
//!
//! ```text
//! hostbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! hostbench --self-test
//! hostbench --pin <workload> <seed>...
//! ```
//!
//! See `README.md` in this directory for the workloads, the metrics and
//! how to read them.

mod config;
mod fingerprint;
mod measure;
mod report;
mod spans;
mod stats;
mod traced;
mod workload;

use std::process::ExitCode;
use workload::Workload;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

const USAGE: &str = "usage: hostbench --workload <serve-kv-a|serve-kv-d-elastic|campaign-fig13> --seed <n> \
                     --seconds <s> --trace <0|1>\n       hostbench --self-test\n       hostbench --pin <workload> <seed>...";

fn parse(args: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || value.parse::<u64>().map_err(|e| format!("{flag} {value}: {e}"));
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(value).ok_or_else(|| format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?.max(1)),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, got {value}")),
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

/// The library reads `ELZAR_*` variables (pass pipelines, engine
/// choice, debug output) that would change what is measured; the
/// benchmark refuses to run under any of them.
fn refuse_elzar_env() -> Result<(), String> {
    let set: Vec<String> = std::env::vars_os()
        .filter_map(|(k, _)| k.into_string().ok())
        .filter(|k| k.starts_with("ELZAR_"))
        .collect();
    if set.is_empty() {
        Ok(())
    } else {
        Err(format!(
            "refusing to run with {} set: the benchmark measures library defaults only",
            set.join(", ")
        ))
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if let Err(e) = refuse_elzar_env() {
        eprintln!("hostbench: {e}");
        return ExitCode::from(2);
    }
    match argv.first().map(String::as_str) {
        Some("--self-test") => return report::exit(measure::self_test()),
        Some("--pin") => return report::exit(measure::print_pins(&argv[1..])),
        _ => {}
    }
    let args = match parse(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("hostbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    println!("{}", report::host_facts());
    let result = if args.trace {
        traced::run(args.workload, args.seed, config::Size::Full)
    } else {
        measure::run(args.workload, args.seed, args.seconds, config::Size::Full)
    };
    println!("{}", result.json());
    if result.correct() {
        ExitCode::SUCCESS
    } else {
        eprintln!("hostbench: {} of {} operations failed their fingerprint", result.failed, result.attempted);
        ExitCode::FAILURE
    }
}
